"""Spacetime reflection toolkit.

Minkowski wedges and their reflections, factorization of Lorentz
transformations into reflection pairs, extension of reflection-indexed
operator families to Poincare representations, and a finite-dimensional
modular-theory oracle.

The public names are those of each submodule's ``__all__``.
"""

from . import errors, minkowski, modular, reconstruction, reflections
from . import sampling, suite, tolerances, wedges
from .errors import *
from .minkowski import *
from .modular import *
from .reconstruction import *
from .reflections import *
from .sampling import *
from .suite import *
from .tolerances import *
from .wedges import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += errors.__all__
__all__ += minkowski.__all__
__all__ += modular.__all__
__all__ += reconstruction.__all__
__all__ += reflections.__all__
__all__ += sampling.__all__
__all__ += suite.__all__
__all__ += tolerances.__all__
__all__ += wedges.__all__
