"""Fox-Wright series evaluation and functional-inequality verification.

The package evaluates series of Fox-Wright type (and the hypergeometric,
Mittag-Leffler, Wright and normalized Bessel specializations) in ordinary
double precision with geometric tail bounds, and verifies the Turan-type,
Lazarevic-type, Wilker-type, ratio-monotonicity and log-concavity
inequalities these functions satisfy, over reproducible parameter grids,
against an independent high-precision oracle.

The package exports the ``__all__`` of each of its eight library modules;
the batch kernels (``batch``) and the command line (``cli``) are imported
only when used.
"""

from . import errors, functions, gammakit, inequalities, oracle
from . import report, series, suites
from .errors import *
from .gammakit import *
from .series import *
from .functions import *
from .inequalities import *
from .oracle import *
from .report import *
from .suites import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *errors.__all__,
    *gammakit.__all__,
    *series.__all__,
    *functions.__all__,
    *inequalities.__all__,
    *oracle.__all__,
    *report.__all__,
    *suites.__all__,
]
