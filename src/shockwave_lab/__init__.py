"""Numerical laboratory for two-shock composite waves of the 1-D
isentropic Navier-Stokes system in Lagrangian coordinates."""

from .riemann import *
from .profile import *
from .composite import *
from .solver import *
from .diagnostics import *
from .config import *

__version__ = "0.1.0"
