"""Independent lens volumes for checking `maximal.lens_volume`.

`cap_profile_volume` integrates the (dim-1)-ball cross sections of the
lens along the line of centers with `scipy.integrate.quad`, the route
the package took above dimension 3 before its closed form.
`betainc_volume` is the two-cap formula V_n(r) I_x((n+1)/2, 1/2),
x = 1 - (d/2r)^2, in 50-digit mpmath at the exact binary inputs.
"""

import math

import mpmath as mp

from sobolev_pointwise import ball_volume


def cap_profile_volume(dim: int, radius: float, distance: float) -> float:
    from scipy import integrate

    def profile(t: float) -> float:
        return ball_volume(dim - 1, math.sqrt(max(radius * radius - t * t, 0.0)))

    value, _ = integrate.quad(profile, 0.5 * distance, radius, epsabs=1e-13, epsrel=1e-12,
                              limit=200)
    return 2.0 * value


def betainc_volume(dim: int, radius: float, distance: float) -> mp.mpf:
    with mp.workdps(50):
        r, d, n = mp.mpf(radius), mp.mpf(distance), mp.mpf(dim)
        ball = mp.pi ** (n / 2) * r ** n / mp.gamma(n / 2 + 1)
        return ball * mp.betainc((n + 1) / 2, mp.mpf(1) / 2, 0, 1 - (d / (2 * r)) ** 2,
                                 regularized=True)
