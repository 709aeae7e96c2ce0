"""Local diophantine properties and jacobian parity for Atkin-Lehner
quotients of Shimura curves, at desk scale and with exact arithmetic.

The public API, ``__all__``, is the library modules' ``__all__`` lists in
layer order; ``alquot.cli`` stays out of the package namespace.  The six
arithmetic layers load with the package.  The dual-graph layer,
``mumford_graph``, loads on first use of one of its names, of the module
itself or of ``__all__``, so ``certify``, ``enumerate`` and ``hilbert``
never compile it.
"""

from . import localpoints, ntheory, parity, quadforms, quaternion, shimura
from .ntheory import *
from .quadforms import *
from .quaternion import *
from .shimura import *
from .localpoints import *
from .parity import *

__version__ = "0.1.0"


def __getattr__(name: str):  # PEP 562: called only for a name not yet bound
    if name == "__all__" or not name.startswith("__"):
        from importlib import import_module  # ``from . import`` would call this hook again
        graph = import_module(".mumford_graph", __name__)
        globals().update({n: getattr(graph, n) for n in graph.__all__}, __all__=[
            n for module in (ntheory, quadforms, quaternion, shimura, localpoints, parity, graph)
            for n in module.__all__
        ])
    if name in globals():
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
