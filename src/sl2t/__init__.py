"""Spectral solver for a three-interval Sturm-Liouville problem.

The equation ``-u'' + q(x) u = lam * w(x) u`` is posed on ``[-1, 1]`` split at
two interior points, with a piecewise-constant weight, linear jump conditions
coupling the pieces, a fixed condition at the left end, and a right-end
condition that is affine in the eigenvalue.  The package locates eigenvalues
by shooting from both ends, certifies them with sign-change brackets, checks
the structural identities behind the operator's symmetry, and compares the
spectrum against its leading asymptotics.
"""

__version__ = "0.1.0"

# each public name is declared once, in its module's ``__all__``
from . import asymptotics, charfn, hilbert, problem, shooting, spectrum, verification
from .asymptotics import *  # noqa: F403
from .charfn import *  # noqa: F403
from .hilbert import *  # noqa: F403
from .problem import *  # noqa: F403
from .shooting import *  # noqa: F403
from .spectrum import *  # noqa: F403
from .verification import *  # noqa: F403

__all__ = ["__version__"] + [
    name
    for module in (problem, shooting, charfn, spectrum, asymptotics, hilbert, verification)
    for name in module.__all__
]
