"""qpath: finite-dimensional quantum processes evaluated three equivalent ways.

The same process can be run as a matrix composition, contracted as a tensor
network, or expanded into an explicit sum over weighted paths; the package
keeps all three routes and the test suite holds them together numerically.
A small text format (.qpd) declares gates, states, circuits, and networks,
and the ``qpath`` command evaluates, samples, verifies, and renders them.
"""

from .linalg import *
from .measure import *
from .pathsum import *
from .tensornet import *
from .dsl import *

__version__ = "0.1.0"
