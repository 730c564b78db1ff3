"""Fox-Wright series evaluation and functional-inequality verification.

The package evaluates series of Fox-Wright type (and the hypergeometric,
Mittag-Leffler, Wright and normalized Bessel specializations) in ordinary
double precision with geometric tail bounds, and verifies the Turan-type,
Lazarevic-type, Wilker-type, ratio-monotonicity and log-concavity
inequalities these functions satisfy, over reproducible parameter grids,
against an independent high-precision oracle.

The package exports the ``__all__`` of each of its eight library modules.
``import foxwright`` loads the evaluation layer only: ``errors``,
``gammakit``, ``series``, ``functions`` and ``report``, with numpy, and the
engine's private ``ddmath`` and ``window``.  The
verification layer, ``inequalities``, ``oracle`` and ``suites`` with
mpmath, loads on the first access to a name the package does not hold yet
(PEP 562), ``__all__`` and ``dir()`` included; from then on every export
is a plain attribute.  The batch kernels (``batch``) and the command line
(``cli``) are imported only when used.
"""

from importlib import import_module

from . import errors, functions, gammakit, report, series
from .errors import *
from .gammakit import *
from .series import *
from .functions import *
from .report import *

__version__ = "0.1.0"

# the order of __all__
_MODULES = ("errors", "gammakit", "series", "functions", "inequalities",
            "oracle", "report", "suites")


def _namespace() -> dict:
    """The package namespace, with the verification layer loaded."""
    ns = globals()
    if "__all__" not in ns:
        names = ["__version__"]
        for name in _MODULES:
            # import_module, not "from . import", which would look the name
            # up on the package and so come back here
            mod = import_module(f"{__name__}.{name}")
            for n in mod.__all__:
                ns.setdefault(n, getattr(mod, n))
            names += mod.__all__
        ns["__all__"] = names  # last: it marks the layer loaded
    return ns


def __getattr__(name: str):
    try:
        return _namespace()[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None


def __dir__() -> list[str]:
    return sorted(_namespace())
