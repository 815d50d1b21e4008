"""Poset pattern occurrence counting, modular decomposition, linear
extension counting, and the 3-SAT pattern-matching reduction."""

from .core import *
from .decomp import *
from .lecount import *
from .occur import *
from .sat import *

__all__ = [name for name in dir() if not name.startswith("_")]
