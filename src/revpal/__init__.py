"""Palindromic reversible circuits.

Decide which self-inverse reversible functions can be written as a circuit
equal to its own reversal, build those circuits, construct the
ancilla-based and square-root-of-NOT alternatives for the rest, count all
the function classes exactly, and verify everything by simulation.

Each module lists its public names in its own ``__all__``; the package
re-exports them all.
"""

from .alternatives import *
from .census import *
from .circuits import *
from .gates import *
from .perm import *
from .simulate import *
from .synth import *

__version__ = "0.1.0"

__all__ = sorted(
    alternatives.__all__
    + census.__all__
    + circuits.__all__
    + gates.__all__
    + perm.__all__
    + simulate.__all__
    + synth.__all__
)
