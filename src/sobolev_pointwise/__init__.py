"""Finite-difference calculus and pointwise Sobolev inequality checks.

The package splits into a thin stack of layers:

``fields``
    analytic test fields (polynomial, Gaussian, power, sinusoid), their
    partial derivatives and derivatives along lines, boxes and the grids
    on them, grid sampling, and derivative magnitudes on grids;
``differences``
    forward differences, Lagrange interpolation and its remainder, and
    the quadrature form of the difference as an integral of a derivative;
``maximal``
    ball and lens volumes, the segment ratio constant, and discrete
    local maximal functions of sampled fields on a ladder of radii;
``mollify``
    mollification kernels, discrete convolution, and Young inequality
    checks;
``verify``
    pair sampling, inequality scan drivers, and machine-readable
    reports.

Everything numerical is vectorized over numpy arrays; the scalar paths
for polynomial fields are exact, in integers at a common dyadic scale
rounded once, so the algebraic identities hold to the last bit.
"""

from . import differences, exceptions, fields, maximal, mollify, verify
from .differences import *
from .exceptions import *
from .fields import *
from .maximal import *
from .mollify import *
from .verify import *

__version__ = "0.1.0"

__all__ = []
__all__ += differences.__all__
__all__ += exceptions.__all__
__all__ += fields.__all__
__all__ += maximal.__all__
__all__ += mollify.__all__
__all__ += verify.__all__
