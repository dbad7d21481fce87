"""Asynchronous cellular automata: step operators, exact invertibility
deciders, inverse construction, and the elementary-rule atlas."""

from .core import *
from .errors import *
from .invertibility import *
from .nakamura import *
from .atlas import *
from .rulefmt import *
from .simulate import *

__version__ = "0.1.0"
