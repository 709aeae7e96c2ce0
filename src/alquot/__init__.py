"""Local diophantine properties and jacobian parity for Atkin-Lehner
quotients of Shimura curves, at desk scale and with exact arithmetic.

The public API, ``__all__``, is the library modules' ``__all__`` lists in
layer order; ``alquot.cli`` stays out of the package namespace.
"""

from . import localpoints, mumford_graph, ntheory, parity, quadforms, quaternion, shimura
from .ntheory import *
from .quadforms import *
from .quaternion import *
from .shimura import *
from .localpoints import *
from .parity import *
from .mumford_graph import *

__all__ = [
    name
    for module in (ntheory, quadforms, quaternion, shimura, localpoints, parity, mumford_graph)
    for name in module.__all__
]

__version__ = "0.1.0"
