"""Asynchronous cellular automata: step operators, exact invertibility
deciders, inverse construction, and the elementary-rule atlas."""

from .core import (
    ECA_NEIGHBORHOOD,
    Alphabet,
    Cell,
    LocalRule,
    Neighborhood,
    WindowConfig,
    difference,
    eca_from_wolfram,
    local_config,
    minimize_neighborhood,
    step,
    with_neighborhood,
    wolfram_number,
)
from .errors import (
    AlphabetMismatchError,
    CaError,
    CenterNotInNeighborhoodError,
    DomainMismatchError,
    LatticeTooSmallError,
    NeighborhoodMismatchError,
    NotElementaryError,
    NotOneDimensionalError,
    OutOfDomainError,
    OutOfRangeError,
    ResourceCapExceededError,
    RuleFormatError,
)
from .invertibility import (
    DEFAULT_WINDOW_CAP,
    DecisionReport,
    DerivationConflict,
    EnumerationStats,
    TwoPredecessorWitness,
    Verdict,
    Witness,
    check_inverse_fully_1d,
    check_inverse_purely,
    decide_fully_1d,
    decide_purely,
    derive_candidate_inverse,
    two_predecessor_witness,
)
from .nakamura import (
    BarRulePair,
    BarState,
    bar_alphabet,
    build_bar_pair,
    decode_bar_state,
    embed_ring,
    encode_bar_state,
    verify_theorem1,
)
from .atlas import (
    FULLY_INVERTIBLE_ECA,
    PURELY_INVERTIBLE_ECA,
    AtlasEntry,
    AtlasReport,
    classify_all_eca,
    diff_against_reference,
)
from .rulefmt import dump_rule, load_rule, rule_from_dict, rule_to_dict
from .simulate import Trace, TraceStep, simulate

__version__ = "0.1.0"
