"""Information-distance Bell inequalities for entangled photon pairs.

Implements the entropic quadrilateral construction of Schumacher
(Phys. Rev. A 44, 7047 (1991)) end to end: two-photon polarization
statistics, Shannon information distances between measurement records,
the four-edge triangle-inequality violation, finite-count simulation
with error propagation, maximum-likelihood state tomography, CHSH
values, a mixed-state model fit, and a multipartite area/volume
generalization.

Each module's ``__all__`` is its public surface; the package re-exports
all of it.
"""

from . import expsim, fitting, infogeo, states, tomography
from .expsim import *  # noqa: F401,F403
from .fitting import *  # noqa: F401,F403
from .infogeo import *  # noqa: F401,F403
from .states import *  # noqa: F401,F403
from .tomography import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["__version__", *states.__all__, *infogeo.__all__, *expsim.__all__, *tomography.__all__,
           *fitting.__all__]
