"""Analytic scalar fields with closed-form derivatives along lines.

A field is a smooth function R^n -> R from a small closed-form family
(polynomials with rational coefficients, Gaussians, radial powers,
separable sinusoids).  Each kind has its float values (`_values`) and
partials (`_partials`) on per-axis coordinate columns that broadcast:
a batch's columns (`value_batch`, `partials_batch`; a point's `value` is
a batch of one), a grid's axes slab by slab (`_slabs`), and a line's
x_i + s h_i (`_line_derivatives`, to high order in s).
Polynomial fields do all scalar work exactly, in integers: every float
is a dyadic rational, so the coordinates of one call (a point, a line or
a grid's axes) go to integers at a common scale 2^-K (`_dyadic`), the
coefficients to integers over their common denominator q, and a value or
line coefficient is one integer over q 2^(K d), rounded once by Python's
correctly rounded int / int division.  That is bit for bit the float of
the exact rational result, so finite-difference identities built on top
of them can be checked to machine precision.  The other kinds take
their line derivatives from their partials by the chain rule,
d^k/ds^k f(x + s h) = sum_beta (k!/beta!) h^beta d^beta f, so each kind
has one derivative path; through order 8 they agreed with a 40-digit
reference to within 4e-13 of the summed absolute terms.  Grid-scale
work uses float64 vectorized paths.
"""

from __future__ import annotations

import itertools
import math
import numbers
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .exceptions import ConfigError, DomainError, UnsupportedOrderError

__all__ = [
    "AnalyticField",
    "PolynomialField",
    "GaussianField",
    "PowerField",
    "SinusoidField",
    "Box",
    "GridSpec",
    "SampledField",
    "evaluate",
    "sample",
    "gradient_magnitude_field",
    "default_directions",
    "parse_field",
    "random_polynomial",
    "scan_corpus",
]

# Highest derivative order any field in the family is asked to produce.
# Orders up to 6 are exercised routinely; the cap only guards against
# runaway arguments.
MAX_DERIVATIVE_ORDER = 24


def _as_point(x, dim: int) -> np.ndarray:
    if type(x) is np.ndarray and x.dtype == np.float64 and x.shape == (dim,):
        return x  # what the conversion below returns for it, without the calls
    pt = np.atleast_1d(np.asarray(x, dtype=float))
    if pt.shape != (dim,):
        raise ValueError(f"expected a point of dimension {dim}, got shape {pt.shape}")
    return pt


def _integer(value, what: str, least: int) -> int:
    """`value` as an int; a bool, a non-integral or non-finite number, or one
    below `least` raises `ConfigError`."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not float(value).is_integer() or value < least):
        raise ConfigError(f"{what} must be an integer >= {least}, got {value!r}")
    return int(value)


def _checked_order(order, least: int, most) -> int:
    """`order` as an int; a bool, a non-integer, or an order below `least`
    or above `most` raises `UnsupportedOrderError`."""
    if isinstance(order, bool) or not isinstance(order, (int, np.integer)) or order < least:
        raise UnsupportedOrderError(f"the order must be an integer >= {least}, got {order!r}")
    if order > most:
        raise UnsupportedOrderError(f"order {order} exceeds supported maximum {most}")
    return int(order)


def _square_sum(cols):
    """|x|^2 from the coordinate columns, squares added in axis order."""
    total = cols[0] * cols[0]
    for col in cols[1:]:
        total = total + col * col
    return total


def _falling(a: float, k: int) -> float:
    """Falling factorial a * (a-1) * ... * (a-k+1)."""
    out = 1.0
    for j in range(k):
        out = out * (a - j)
    return out


def _dyadic(*vectors) -> tuple[list[list[int]], int]:
    """Integer vectors X and one exponent K with vectors[i][j] == X[i][j] / 2**K.

    Every finite float is n / 2**k, so K is the largest k over all the
    coordinates.  NaN raises `ValueError` and an infinity `OverflowError`,
    as `Fraction` does.
    """
    ratios = [[v.as_integer_ratio() for v in np.asarray(vec, dtype=float).tolist()]
              for vec in vectors]
    top = max((d for vec in ratios for _, d in vec), default=1)
    return [[n * (top // d) for n, d in vec] for vec in ratios], top.bit_length() - 1


def _radial_partials(cols, order: int, outer) -> np.ndarray:
    """Every order-th partial of F(|x|^2) at coordinate columns `cols`, shape (K, *outer[0].shape).

    outer[k] must hold F^(k)(|x|^2) for k up to `order`.  This is the
    several-variable Faa di Bruno formula (Constantine and Savits, Trans.
    AMS 348, 1996) for an outer function of the quadratic |x|^2:

        d^beta f = sum_{j <= beta/2} F^(|beta|-|j|)(|x|^2)
                   * prod_i beta_i! / (j_i! (beta_i-2j_i)!) * (2 x_i)^(beta_i-2j_i)

    Cancellation grows with the order: for |x|^1.5 on [0.2, 0.9]^n the
    line derivatives from these partials erred by up to 4e-13 (order 8),
    1e-12 (order 9), 5e-10 (order 16) and 5e-7 (order 24) of their summed
    absolute terms, which is why `PowerField.max_order` is 8.
    """
    powers = []  # powers[i][p] = (2 x_i)^p for p >= 1
    for col in cols:
        row = [None, 2.0 * col]
        for _ in range(2, order + 1):
            row.append(row[-1] * row[1])
        powers.append(row)
    betas = _compositions(order, len(cols))
    out = np.empty((len(betas),) + outer[0].shape)
    for k, beta in enumerate(betas):
        total = 0.0
        for j in itertools.product(*(range(b // 2 + 1) for b in beta)):
            coeff = 1
            term = outer[order - sum(j)]
            for row, b, ji in zip(powers, beta, j):
                coeff *= math.factorial(b) // (math.factorial(ji) * math.factorial(b - 2 * ji))
                if b > 2 * ji:
                    term = term * row[b - 2 * ji]
            total = total + coeff * term
        out[k] = total
    return out


# ---------------------------------------------------------------------------
# line derivatives


# Points per block in `_line_derivatives`, nodes per slab in `_slabs`: the
# temporaries of a block stay this size, so peak memory is the points and
# the output, however many there are.
_NODE_BLOCK = 8192


def _line_weights(order: int, dirs: np.ndarray) -> np.ndarray:
    """Matrix (D, K) taking the order-th partials to the order-th derivatives
    along the rows of `dirs` (D, dim): sum_beta (order!/beta!) h^beta d^beta f."""
    return np.stack([math.factorial(order) // math.prod(math.factorial(b) for b in beta)
                     * np.prod(dirs ** np.asarray(beta), axis=1)
                     for beta in _compositions(order, dirs.shape[1])], axis=1)


def _line_derivatives(f: "AnalyticField", x: np.ndarray, h: np.ndarray, order: int,
                      ts) -> np.ndarray:
    """Float order-th derivatives of s |-> f(x + s h) at each point of `ts`.

    A polynomial runs Horner's rule on its exact line coefficients
    (`_scaled_line`), each rounded once; every other kind contracts its
    order-th partials at x + t h with `_line_weights`, `_NODE_BLOCK`
    points at a time.
    """
    ts = np.asarray(ts, dtype=float)
    if isinstance(f, PolynomialField):
        (xs, hs), scale = _dyadic(x, h)
        coeffs, den = f._scaled_line(xs, hs, scale)
        out = np.zeros_like(ts)
        for k in reversed(range(order, len(coeffs))):
            out = out * ts + coeffs[k] * math.perm(k, order) / den
        return out
    weights = _line_weights(order, h[None, :])
    out = np.empty(len(ts))
    for start in range(0, len(ts), _NODE_BLOCK):
        block = slice(start, start + _NODE_BLOCK)
        parts = f._partials([xi + ts[block] * hi for xi, hi in zip(x, h)], order)
        # einsum, not a BLAS product (see `_derivative_magnitude`)
        out[block] = np.einsum("dk,kn->dn", weights, parts)[0]
    return out


# ---------------------------------------------------------------------------
# field family


class AnalyticField:
    """Base class for the closed-form field family.

    Subclasses provide `dim`, their values (`_values`) and partial
    derivatives (`_partials`) on coordinate columns; only `PolynomialField`
    adds an exact point evaluation of its own.  Derivatives along a line
    come from the partials (`_line_derivatives`), except a polynomial's,
    which come from its exact integer line coefficients.
    """

    dim: int
    max_order: int = MAX_DERIVATIVE_ORDER

    def value(self, x) -> float:
        """`value_batch` on the one point x, so a point and a batch agree
        bit for bit; `PolynomialField` overrides it with its exact value."""
        return float(self.value_batch(_as_point(x, self.dim)[None])[0])

    def value_batch(self, pts: np.ndarray) -> np.ndarray:
        """The values at points of shape (N, dim), from `_values`."""
        pts = np.asarray(pts, dtype=float)
        return self._values([pts[..., i] for i in range(self.dim)])

    def partials_batch(self, pts: np.ndarray, order: int) -> np.ndarray:
        """Every order-th partial derivative at points of shape (N, dim).

        Returns shape (K, N), K = C(order+dim-1, dim-1), one row per
        multi-index in `_compositions(order, dim)` order, from `_partials`.
        """
        pts = np.asarray(pts, dtype=float)
        return self._partials([pts[..., i] for i in range(self.dim)], order)

    def _values(self, cols) -> np.ndarray:
        """The float values at the points with coordinate columns `cols`, one
        per axis, that broadcast together: shape their broadcast shape."""
        raise NotImplementedError

    def _partials(self, cols, order: int) -> np.ndarray:
        """`partials_batch` at the points with coordinate columns `cols`:
        shape (K, *their broadcast shape)."""
        raise NotImplementedError

    def contains_box(self, lo, hi) -> bool:
        _as_point(lo, self.dim)
        _as_point(hi, self.dim)
        return True


class PolynomialField(AnalyticField):
    """Multivariate polynomial with rational coefficients, exact at every step.

    Coefficients map exponent tuples to `Fraction` values.  Scalar
    evaluation and line coefficients run on the cached integer form
    (q, d, c_alpha q) at a common dyadic scale of the call's coordinates,
    homogenized to degree d, so algebraic identities hold exactly after a
    single final rounding, the same float as `Fraction` arithmetic.
    """

    def __init__(self, coeffs, dim: int | None = None):
        terms: dict[tuple[int, ...], Fraction] = {}
        for exps, c in (coeffs.items() if isinstance(coeffs, dict) else coeffs):
            exps = tuple(int(e) for e in exps)
            if any(e < 0 for e in exps):
                raise ConfigError("polynomial exponents must be nonnegative")
            c = Fraction(c)
            if c != 0:
                terms[exps] = terms[exps] + c if exps in terms else c
        terms = {e: c for e, c in terms.items() if c != 0}
        dims = {len(e) for e in terms}
        if len(dims) > 1:
            raise ConfigError("all exponent tuples must have the same length")
        if dim is None:
            if not dims:
                raise ConfigError("zero polynomial needs an explicit dimension")
            dim = dims.pop()
        self.dim = _integer(dim, "the dimension", 1)
        if dims and dims.pop() != self.dim:
            raise ConfigError("exponent tuples do not match the requested dimension")
        self.terms = tuple(sorted(terms.items(), key=lambda item: (-sum(item[0]), item[0])))

    def __eq__(self, other):
        return isinstance(other, PolynomialField) and (self.dim, self.terms) == (other.dim, other.terms)

    @property
    def degree(self) -> int:
        return max((sum(e) for e, _ in self.terms), default=0)

    @cached_property
    def _integer_form(self) -> tuple[int, int, tuple[tuple[tuple[int, ...], int, int], ...]]:
        """(q, d, terms): q the lcm of the coefficient denominators, d the
        degree, and per term its exponents, the integer c_alpha q and d - |alpha|."""
        q = math.lcm(*(c.denominator for _, c in self.terms))
        d = self.degree
        return q, d, tuple((e, c.numerator * (q // c.denominator), d - sum(e))
                           for e, c in self.terms)

    @cached_property
    def _float_terms(self) -> tuple[tuple[tuple[int, ...], float], ...]:
        """The terms with each coefficient rounded once to a float."""
        return tuple((e, float(c)) for e, c in self.terms)

    def _scaled_value(self, xs: list, scale: int):
        """The value at xs / 2^scale times q 2^(scale d): the homogenized
        sum_alpha c_alpha q xs^alpha 2^(scale (d - |alpha|)), for xs of Python
        ints or of object-dtype integer columns that broadcast (`sample`)."""
        total = 0
        for exps, p, deficit in self._integer_form[2]:
            p <<= scale * deficit
            for xi, ei in zip(xs, exps):
                if ei:
                    p = p * xi ** ei
            total = total + p
        return total

    def _scaled_den(self, scale: int) -> int:
        """Denominator q 2^(scale d) of `_scaled_value` and `_scaled_line`."""
        q, d, _ = self._integer_form
        return q << scale * d

    def value(self, x) -> float:
        [xs], scale = _dyadic(_as_point(x, self.dim))
        return self._scaled_value(xs, scale) / self._scaled_den(scale)

    def _powers(self, cols) -> list[list]:
        """One power table per coordinate column, powers[i][k] = x_i^k for
        k >= 1, up to the field's top exponent on that axis, as x^k =
        x^(k-1) * x: products round the same on every CPU, where a SIMD
        `pow` need not (and is slow on negative bases)."""
        powers = []
        for i, col in enumerate(cols):
            row = [None, col]
            for _ in range(2, max((e[i] for e, _ in self.terms), default=0) + 1):
                row.append(row[-1] * col)
            powers.append(row)
        return powers

    def _values(self, cols) -> np.ndarray:
        """Float evaluation, monomial by monomial, from `_powers`."""
        return _monomial_sum(self._powers(cols), self._float_terms)

    def _scaled_line(self, xs: list[int], hs: list[int], scale: int) -> tuple[list[int], int]:
        """Restriction to s |-> (xs + s hs) / 2^scale, exact: (coeffs, den)
        with integer coeffs[k] / den the coefficient of s^k."""
        total = [0] * (self._integer_form[1] + 1)
        for exps, p, deficit in self._integer_form[2]:
            term = [p << scale * deficit]
            for xi, hi, ei in zip(xs, hs, exps):
                for _ in range(ei):
                    # multiply by (xi + hi * s)
                    nxt = [0] * (len(term) + 1)
                    for k, a in enumerate(term):
                        nxt[k] += a * xi
                        nxt[k + 1] += a * hi
                    term = nxt
            for k, a in enumerate(term):
                total[k] += a
        return total, self._scaled_den(scale)

    def _partials(self, cols, order: int) -> np.ndarray:
        """Each d^beta f evaluated as `_values` evaluates a field: the
        terms with alpha >= beta become c_alpha prod_i perm(alpha_i, beta_i)
        x^(alpha - beta), rounded once from the exact coefficient, in the
        field's term order, which is also the partial's own sorted order."""
        powers = self._powers(cols)
        rows = []
        for beta in _compositions(order, self.dim):
            terms = []
            for exps, c in self.terms:
                if all(e >= b for e, b in zip(exps, beta)):
                    coeff = c.numerator * math.prod(map(math.perm, exps, beta)) / c.denominator
                    terms.append((tuple(e - b for e, b in zip(exps, beta)), coeff))
            rows.append(_monomial_sum(powers, terms))
        return np.stack(rows)

    def __repr__(self):
        return f"PolynomialField({format_poly(self)!r}, dim={self.dim})"

    def __str__(self):
        return "poly:" + format_poly(self)


def _monomial_sum(powers: list[list], terms) -> np.ndarray:
    """sum of c x^exps over `terms` (exps, float c), each monomial the
    coefficient times the `_powers` rows in axis order, added in turn.  On
    broadcasting columns a monomial stays the size of its axes so far."""
    out = np.zeros(np.broadcast_shapes(*(row[1].shape for row in powers)))
    for exps, c in terms:
        mono = c
        for row, ei in zip(powers, exps):
            if ei:
                mono = mono * row[ei]
        out += mono
    return out


@lru_cache(maxsize=None)
def _compositions(total: int, parts: int) -> tuple[tuple[int, ...], ...]:
    """All tuples of `parts` nonnegative integers summing to `total`."""
    if parts == 1:
        return ((total,),)
    out = []
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            out.append((first,) + rest)
    return tuple(out)


def format_poly(field: PolynomialField) -> str:
    if not field.terms:
        return "0"
    chunks = []
    for exps, c in field.terms:
        factors = []
        if abs(c) != 1 or not any(exps):
            factors.append(str(abs(c)))
        for i, ei in enumerate(exps):
            if ei == 1:
                factors.append(f"x{i}")
            elif ei > 1:
                factors.append(f"x{i}^{ei}")
        body = "*".join(factors)
        chunks.append(("-" if c < 0 else "+") + body)
    text = "".join(chunks)
    return text[1:] if text.startswith("+") else text


class GaussianField(AnalyticField):
    """Radial Gaussian exp(-a |x|^2) with a > 0."""

    def __init__(self, a: float, dim: int = 1):
        if not 0 < a < math.inf:
            raise ConfigError(f"the gaussian width a must be a finite number > 0, got {a!r}")
        self.a = float(a)
        self.dim = _integer(dim, "the dimension", 1)

    def _values(self, cols) -> np.ndarray:
        return np.exp(-self.a * _square_sum(cols))

    def _partials(self, cols, order: int) -> np.ndarray:
        g = self._values(cols)
        return _radial_partials(cols, order, [(-self.a) ** k * g for k in range(order + 1)])

    def __str__(self):
        return f"gauss:a={self.a:g}"

    __repr__ = __str__


class PowerField(AnalyticField):
    """Radial power |x|^alpha on R^n minus a small ball at the origin.

    The ball of radius `exclusion` = 0.05 around the origin is outside the
    domain, which keeps all derivative orders bounded on the remainder.
    Orders stop at 8: beyond it the Faa di Bruno sum of `_radial_partials`
    loses more than 1e-12 of its summed absolute terms to cancellation.
    """

    max_order = 8
    exclusion = 0.05

    def __init__(self, alpha: float, dim: int = 1):
        self.alpha = float(alpha)
        self.dim = _integer(dim, "the dimension", 1)
        if not math.isfinite(self.alpha):
            raise ConfigError(f"the power alpha must be finite, got {alpha!r}")

    def contains_box(self, lo, hi) -> bool:
        lo = _as_point(lo, self.dim)
        hi = _as_point(hi, self.dim)
        nearest = np.clip(0.0, lo, hi)
        return float(np.dot(nearest, nearest)) >= self.exclusion ** 2

    def _r2(self, cols) -> np.ndarray:
        """|x|^2 as an array, the one test of the excluded ball (a numpy
        scalar's ** rounds differently from the array power in ~5% of cases)."""
        r2 = np.asarray(_square_sum(cols))
        if (r2 < self.exclusion ** 2).any():
            raise DomainError("points fall inside the excluded ball at the origin")
        return r2

    def _values(self, cols) -> np.ndarray:
        return self._r2(cols) ** (self.alpha / 2.0)

    def segment_in_domain(self, x, h, s0: float, s1: float) -> bool:
        """Whether x + s h stays outside the excluded ball for all s in [s0, s1].

        The squared radius along the line is quadratic in s, so the
        minimum over the segment is found exactly.
        """
        pt = _as_point(x, self.dim)
        hv = _as_point(h, self.dim)
        x2 = float(np.dot(pt, pt))
        xh = float(np.dot(pt, hv))
        h2 = float(np.dot(hv, hv))
        candidates = [s0, s1]
        if h2 > 0.0:
            candidates.append(min(max(-xh / h2, s0), s1))
        r2_min = min(x2 + 2.0 * xh * s + h2 * s * s for s in candidates)
        return r2_min >= self.exclusion ** 2

    def _partials(self, cols, order: int) -> np.ndarray:
        r2 = self._r2(cols)
        beta = self.alpha / 2.0
        return _radial_partials(cols, order, [_falling(beta, k) * r2 ** (beta - k)
                                             for k in range(order + 1)])

    def __str__(self):
        return f"pow:alpha={self.alpha:g}"

    __repr__ = __str__


class SinusoidField(AnalyticField):
    """Separable product prod_i sin(w_i x_i)."""

    def __init__(self, omegas):
        self.omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
        if self.omegas.ndim != 1 or self.omegas.size == 0 or not np.isfinite(self.omegas).all():
            raise ConfigError(f"the sinusoid frequencies w must be a nonempty vector of finite "
                              f"numbers, got {omegas!r}")
        self.dim = int(self.omegas.size)

    def _values(self, cols) -> np.ndarray:
        out = np.sin(self.omegas[0] * cols[0])
        for w, col in zip(self.omegas[1:], cols[1:]):
            out = out * np.sin(w * col)
        return out

    def _partials(self, cols, order: int) -> np.ndarray:
        # per-axis factors w^k sin(w x + k pi/2), multiplied in axis order
        tables = [[w ** k * np.sin(w * col + 0.5 * k * math.pi) for k in range(order + 1)]
                  for w, col in zip(self.omegas, cols)]
        return np.stack([math.prod(t[b] for t, b in zip(tables, beta))
                         for beta in _compositions(order, self.dim)])

    def __str__(self):
        w = ",".join(f"{v:g}" for v in self.omegas)
        return f"sin:w={w}"

    __repr__ = __str__


# ---------------------------------------------------------------------------
# grids and sampled fields


@dataclass(frozen=True)
class Box:
    """Axis-aligned closed box."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        lo = tuple(float(v) for v in np.atleast_1d(self.lo))
        hi = tuple(float(v) for v in np.atleast_1d(self.hi))
        if len(lo) != len(hi):
            raise ConfigError("box lo/hi must have the same length")
        if not all(map(math.isfinite, lo + hi)):
            raise ConfigError("box bounds must be finite")
        if any(h <= l for l, h in zip(lo, hi)):
            raise ConfigError("box must have positive extent on every axis")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def extent(self) -> tuple[float, ...]:
        return tuple(h - l for l, h in zip(self.lo, self.hi))

    def holds(self, other: "Box") -> bool:
        """Whether the closed box `other`, of the same dimension, lies in this one."""
        return other.dim == self.dim and all(
            l <= ol and oh <= h for l, h, ol, oh in zip(self.lo, self.hi, other.lo, other.hi))

    @classmethod
    def of_grid(cls, grid: "GridSpec") -> "Box":
        return cls(grid.lo, grid.hi)


@dataclass(frozen=True)
class GridSpec(Box):
    """Regular tensor grid on a box, node i_k at lo_k + i_k * spacing_k."""

    points: tuple[int, ...]

    def __post_init__(self):
        super().__post_init__()
        pts = np.atleast_1d(self.points)
        if len(pts) != self.dim:
            raise ConfigError("grid lo/hi/points must have matching lengths")
        if not all(float(p).is_integer() for p in pts):
            raise ConfigError(f"grid point counts must be integers, got {self.points!r}")
        if any(p < 2 for p in pts):
            raise ConfigError("grids need at least two points per axis")
        object.__setattr__(self, "points", tuple(int(p) for p in pts))

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple((h - l) / (p - 1) for l, h, p in zip(self.lo, self.hi, self.points))

    @cached_property
    def axes(self) -> tuple[np.ndarray, ...]:
        return tuple(np.linspace(l, h, p) for l, h, p in zip(self.lo, self.hi, self.points))

    @cached_property
    def trapezoid_weights(self) -> np.ndarray:
        out = np.ones(self.points)
        for k, (sp, p) in enumerate(zip(self.spacing, self.points)):
            w = np.full(p, sp)
            w[0] = w[-1] = 0.5 * sp
            shape = [1] * self.dim
            shape[k] = p
            out = out * w.reshape(shape)
        return out

    @classmethod
    def cube(cls, lo: float, hi: float, points: int, dim: int) -> "GridSpec":
        return cls((lo,) * dim, (hi,) * dim, (points,) * dim)


@dataclass
class SampledField:
    """Field values on a `GridSpec`, lexicographic in the grid axes."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.points:
            raise ConfigError(f"values shape {self.values.shape} does not match grid {self.grid.points}")
        if not np.all(np.isfinite(self.values)):
            raise ConfigError("sampled fields must be finite everywhere")

    def at(self, pts) -> np.ndarray:
        """Multilinear read-back at points (N, dim) inside the grid box.

        The gather reproduces scipy's linear `RegularGridInterpolator`
        (with bounds_error=True) bit for bit: the same cells and offsets,
        and the corners summed in its order and association.  A point
        outside the box raises `ValueError`.
        """
        return _gather(self.values, _grid_cells(self.grid, pts))


def _grid_cells(grid: GridSpec, pts) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Each point's cell per axis: the node index i with axis[i] <= p <
    axis[i+1] (the last node in cell n-2), and the offset (p - axis[i]) /
    (axis[i+1] - axis[i]), as scipy's binary search finds them.

    The index comes from (p - lo) / spacing, corrected by one comparison
    each way against the axis nodes.  The upward step reads `guard`, the
    upper nodes with the last set to +inf, so a point in the last cell
    (the top node included) never steps past it.  A NaN fails the box
    test, since `min` and `max` propagate it.
    """
    pts = np.asarray(pts, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != grid.dim:
        raise ValueError(f"expected points of shape (N, {grid.dim}), got {pts.shape}")
    cells, offsets = [], []
    for k, (axis, lo, sp) in enumerate(zip(grid.axes, grid.lo, grid.spacing)):
        p = pts[:, k]
        if len(p) and not (axis[0] <= p.min() and p.max() <= axis[-1]):
            raise ValueError(f"a point lies outside the grid box on axis {k}")
        upper = axis[1:]
        guard = np.append(upper[:-1], math.inf)
        i = np.minimum(((p - lo) / sp).astype(np.intp), len(upper) - 1)
        i -= axis.take(i) > p
        i += guard.take(i) <= p
        below = axis.take(i)
        cells.append(i)
        offsets.append((p - below) / (upper.take(i) - below))
    return cells, offsets


def _gather(values: np.ndarray, cells, rung: np.ndarray | None = None) -> np.ndarray:
    """Multilinear interpolation from `_grid_cells` output.

    `values` has the grid's shape, or (R, *grid) with `rung` giving each
    point's leading index.  Corners go in lexicographic order, lower
    corner first; in 2-D each weight multiplies into the value in turn,
    (v * w0) * w1, and in every other dimension the weights multiply
    first, v * (w0 * w1 * ...), as scipy's two code paths do.
    """
    index, upper = cells
    dim = len(index)
    lower = [1 - y for y in upper]
    flat = values.ravel()
    strides = [math.prod(values.shape[k + 1:]) for k in range(values.ndim)][-dim:]
    base = index[-1]
    for i, st in zip(index[:-1], strides):
        base = base + i * st
    if rung is not None:
        base = base + rung * math.prod(values.shape[1:])
    out = np.zeros(len(base))
    for corner in itertools.product((0, 1), repeat=dim):
        shift = sum(c * st for c, st in zip(corner, strides))
        v = flat.take(base + shift if shift else base)
        w = [hi if c else lo for c, lo, hi in zip(corner, lower, upper)]
        out += v * w[0] * w[1] if dim == 2 else v * math.prod(w[1:], start=w[0])
    return out


# ---------------------------------------------------------------------------
# module-level operations


def evaluate(f: AnalyticField, x) -> float:
    """Value of `f` at the point `x`: exact, rounded once, for polynomials;
    for every other kind `value_batch` on that one point, bit for bit.  A
    point outside the domain raises `DomainError`."""
    return f.value(x)


def _slabs(grid: GridSpec, axes):
    """The grid in lead-axis slabs of at most `_NODE_BLOCK` nodes, one row
    at least: each slab's slice of the lead axis, and the columns of
    `axes` (one array per grid axis) shaped to broadcast over the slab."""
    cols = [axis.reshape([-1 if j == i else 1 for j in range(grid.dim)])
            for i, axis in enumerate(axes)]
    rows = max(1, _NODE_BLOCK // math.prod(grid.points[1:]))
    for start in range(0, grid.points[0], rows):
        slab = slice(start, start + rows)
        yield slab, [cols[0][slab], *cols[1:]]


def _check_grid(f: AnalyticField, grid: GridSpec) -> None:
    """Refuse a grid of another dimension than `f`, or whose box leaves its domain."""
    if grid.dim != f.dim:
        raise ConfigError(f"grid dimension {grid.dim} does not match field dimension {f.dim}")
    if not f.contains_box(grid.lo, grid.hi):
        raise DomainError(f"grid box {grid.lo}..{grid.hi} is not inside the domain of {f}")


def sample(f: AnalyticField, grid: GridSpec) -> SampledField:
    """Rasterize `f` on `grid` slab by slab (`_slabs`): a float kind by
    `_values` on the grid axes, a polynomial by one integer pass, all at
    one scale, each node's numerator broadcast from the axis columns by
    `_scaled_value` and divided once.

    Read-back at a node reproduces `evaluate` bit for bit.
    """
    _check_grid(f, grid)
    axes, values = grid.axes, f._values
    if isinstance(f, PolynomialField):
        ints, scale = _dyadic(*grid.axes)
        den = f._scaled_den(scale)
        axes = [np.array(axis, dtype=object) for axis in ints]
        values = lambda cols: f._scaled_value(cols, scale) / den
    vals = np.empty(grid.points)
    for slab, cols in _slabs(grid, axes):
        vals[slab] = values(cols)
    return SampledField(grid, vals)


def default_directions(dim: int) -> np.ndarray:
    """Finite unit-direction set used to probe m-th directional derivatives.

    One direction suffices on the line; in the plane 64 equispaced angles
    cover a half-turn; in 3-space the axes plus face and body diagonals
    are used; higher dimensions fall back to axes plus the main diagonal.
    """
    if dim == 1:
        return np.array([[1.0]])
    if dim == 2:
        angles = np.arange(64) * (math.pi / 64.0)
        return np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    if dim == 3:
        raw = [(1, 0, 0), (0, 1, 0), (0, 0, 1),
               (1, 1, 0), (1, -1, 0), (1, 0, 1), (1, 0, -1), (0, 1, 1), (0, 1, -1),
               (1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1)]
    else:
        raw = [tuple(1 if i == k else 0 for i in range(dim)) for k in range(dim)]
        raw.append((1,) * dim)
    arr = np.asarray(raw, dtype=float)
    return arr / np.linalg.norm(arr, axis=1, keepdims=True)


def _sym3_simple_eigenvalue(a, b, c, d, e, f):
    """The simple extreme eigenvalue of [[a, d, e], [d, b, f], [e, f, c]].

    With q = tr(H)/3 and p = |H - qI|_F / sqrt(6), the extreme eigenvalue
    on the side of det(H - qI) is at least sqrt(3) p from the other two,
    and the trigonometric formula (Smith, CACM 1961) gives it accurately.
    """
    q = (a + b + c) / 3.0
    a0, b0, c0 = a - q, b - q, c - q
    p = np.sqrt((a0 * a0 + b0 * b0 + c0 * c0 + 2.0 * (d * d + e * e + f * f)) / 6.0)
    # below 1e-100 H is q I to that accuracy; leaving B unscaled avoids overflow
    inv = 1.0 / np.where(p > 1e-100, p, 1.0)
    a0, b0, c0, d, e, f = (v * inv for v in (a0, b0, c0, d, e, f))
    half_det = 0.5 * (a0 * (b0 * c0 - f * f) - d * (d * c0 - f * e) + e * (d * f - b0 * e))
    r = np.clip(half_det, -1.0, 1.0)
    phi = np.arccos(r) / 3.0
    return q + 2.0 * p * np.cos(np.where(r >= 0.0, phi, phi + 2.0 * math.pi / 3.0))


def _sym3_norm(a, b, c, d, e, f):
    """Spectral norm of [[a, d, e], [d, b, f], [e, f, c]], entries at most 1 in size.

    The simple extreme eigenvalue lam comes in closed form; the other two
    are m +- s, m = (tr H - lam) / 2.  C = (H - lam I)(H - m I) has
    eigenvalues 0 and s (g +- s), g = m - lam, so F = |C|_F^2 = 2 s^2 (g^2 + s^2)
    and s^2 = F / (g^2 + sqrt(g^4 + 2 F)).  C's entries are products of shifted
    entries, so s errs by O(eps |H|) even at the double eigenvalue a radial
    field has at every node, where the closed form loses half the digits.
    """
    lam = _sym3_simple_eigenvalue(a, b, c, d, e, f)
    m = 0.5 * (a + b + c - lam)
    a1, b1, c1 = a - lam, b - lam, c - lam
    a2, b2, c2 = a - m, b - m, c - m
    # C is symmetric (its factors commute): its six distinct entries
    c00 = a1 * a2 + d * d + e * e
    c11 = d * d + b1 * b2 + f * f
    c22 = e * e + f * f + c1 * c2
    c01 = a1 * d + d * b2 + e * f
    c02 = a1 * e + d * f + e * c2
    c12 = d * e + b1 * f + f * c2
    frob = c00 * c00 + c11 * c11 + c22 * c22 + 2.0 * (c01 * c01 + c02 * c02 + c12 * c12)
    g2 = (m - lam) ** 2
    den = g2 + np.sqrt(g2 * g2 + 2.0 * frob)
    # den is 0 only where H = q I, and frob with it
    t = frob / np.where(den > 0.0, den, 1.0)
    return np.maximum(np.abs(lam), np.abs(m) + np.sqrt(t))


def _hessian_norm(parts: np.ndarray, dim: int) -> np.ndarray:
    """Spectral norm of each node's Hessian from its second partials, shape
    (K, *nodes) in `_compositions(2, dim)` order; dim >= 2."""
    h = {}
    for row, beta in zip(parts, _compositions(2, dim)):
        i, j = [axis for axis, b in enumerate(beta) for _ in range(b)]
        h[i, j] = h[j, i] = row
    if dim == 2:  # eigenvalues (a+b)/2 +- hypot((a-b)/2, d) of [[a, d], [d, b]]
        return 0.5 * np.abs(h[0, 0] + h[1, 1]) + np.hypot(0.5 * (h[0, 0] - h[1, 1]), h[0, 1])
    if dim == 3:
        return _sym3_norm(h[0, 0], h[1, 1], h[2, 2], h[0, 1], h[0, 2], h[1, 2])
    mats = np.stack([np.stack([h[i, j] for j in range(dim)], axis=-1)
                     for i in range(dim)], axis=-2)
    return np.max(np.abs(np.linalg.eigvalsh(mats)), axis=-1)


def _derivative_magnitude(parts: np.ndarray, order: int, dim: int) -> np.ndarray:
    """|grad^order f| at each node from the order-th partials, shape (K, *nodes)."""
    if len(parts) == 1:
        return np.abs(parts[0])
    # scale each node's partials to at most 1 in size, so no square or
    # product underflows or overflows
    scale = np.max(np.abs(parts), axis=0)
    parts = parts / np.where(scale > 0.0, scale, 1.0)
    if order == 1:
        norm = np.sqrt(np.einsum("k...,k...->...", parts, parts))
    elif order == 2:
        norm = _hessian_norm(parts, dim)
    else:
        # einsum, not a BLAS product: with K this small, threaded dgemm took
        # ten times longer on a 2-CPU host; abs in place: a second 4 MB
        # temporary made a 2-D slab 2.5 times slower
        lines = np.einsum("dk,k...->d...", _line_weights(order, default_directions(dim)), parts)
        norm = np.max(np.abs(lines, out=lines), axis=0)
    return scale * norm


def gradient_magnitude_field(f: AnalyticField, grid: GridSpec, order: int = 1) -> SampledField:
    """Pointwise magnitude |grad^order f| on a grid, a nonnegative `SampledField`.

    The magnitude is the largest order-th directional derivative over
    unit directions e, |sum_beta (order!/beta!) e^beta d^beta f|, from every
    order-th partial, slab by slab (`_slabs`): `_partials` on the grid axes,
    bit for bit `partials_batch` at the nodes.  For order <= 2 it is exact
    up to roundoff: the gradient's length, and the Hessian's spectral norm
    (closed form up to 3 dimensions, `np.linalg.eigvalsh` beyond).  For
    order >= 3 in 2 or more dimensions it is the maximum over
    `default_directions`, which can fall below the supremum.
    """
    order = _checked_order(order, 1, f.max_order)
    _check_grid(f, grid)
    out = np.empty(grid.points)
    for slab, cols in _slabs(grid, grid.axes):
        out[slab] = _derivative_magnitude(f._partials(cols, order), order, grid.dim)
    return SampledField(grid, out)


# ---------------------------------------------------------------------------
# the string grammar and the standard corpus

_NUM_RE = r"\d+(?:\.\d+)?(?:/\d+)?"
_FACTOR_RE = re.compile(rf"^(?:(?P<num>{_NUM_RE})|x(?P<var>\d+)(?:\^(?P<exp>\d+))?)$")


def _parse_poly(expr: str, dim: int | None) -> PolynomialField:
    text = expr.replace(" ", "")
    if not text:
        raise ConfigError("empty polynomial expression")
    pieces = re.split(r"(?=[+-])", text)
    terms = []
    max_var = -1
    for piece in pieces:
        if not piece:
            continue
        sign = Fraction(1)
        if piece[0] in "+-":
            sign = Fraction(-1) if piece[0] == "-" else Fraction(1)
            piece = piece[1:]
        if not piece:
            raise ConfigError(f"dangling sign in polynomial expression {expr!r}")
        coeff = sign
        powers: dict[int, int] = {}
        for factor in piece.split("*"):
            mt = _FACTOR_RE.match(factor)
            if mt is None:
                raise ConfigError(f"cannot parse polynomial factor {factor!r} in {expr!r}")
            if mt.group("num") is not None:
                coeff *= Fraction(mt.group("num"))
            else:
                idx = int(mt.group("var"))
                powers[idx] = powers.get(idx, 0) + int(mt.group("exp") or 1)
                max_var = max(max_var, idx)
        terms.append((powers, coeff))
    if dim is None:
        dim = max_var + 1 if max_var >= 0 else 1
    if max_var >= dim:
        raise ConfigError(f"variable x{max_var} exceeds dimension {dim}")
    coeffs: dict[tuple[int, ...], Fraction] = {}
    for powers, coeff in terms:
        exps = tuple(powers.get(i, 0) for i in range(dim))
        coeffs[exps] = coeffs.get(exps, Fraction(0)) + coeff
    return PolynomialField(coeffs, dim=dim)


def parse_field(text: str, dim: int | None = None) -> AnalyticField:
    """Build a field from its string form.

    Grammar: ``poly:<expr>`` with terms like ``1+2*x0^2*x1``,
    ``gauss:a=<float>``, ``pow:alpha=<float>``, ``sin:w=<w0>,<w1>,...``.
    `dim` fixes the ambient dimension where the string leaves it open.
    """
    if ":" not in text:
        raise ConfigError(f"field string {text!r} lacks a 'kind:' prefix")
    kind, _, body = text.partition(":")
    kind = kind.strip().lower()
    body = body.strip()
    try:
        if kind == "poly":
            return _parse_poly(body, dim)
        if kind == "gauss":
            key, _, val = body.partition("=")
            if key.strip() != "a":
                raise ConfigError(f"gauss fields take a=<float>, got {body!r}")
            return GaussianField(float(val), dim=1 if dim is None else dim)
        if kind == "pow":
            key, _, val = body.partition("=")
            if key.strip() != "alpha":
                raise ConfigError(f"pow fields take alpha=<float>, got {body!r}")
            return PowerField(float(val), dim=1 if dim is None else dim)
        if kind == "sin":
            key, _, val = body.partition("=")
            if key.strip() != "w":
                raise ConfigError(f"sin fields take w=<w0>,<w1>,..., got {body!r}")
            omegas = [float(v) for v in val.split(",") if v.strip()]
            if dim is not None and len(omegas) != dim:
                raise ConfigError(f"sin field has {len(omegas)} frequencies but dimension {dim}")
            return SinusoidField(omegas)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"cannot parse field string {text!r}: {exc}") from exc
    raise ConfigError(f"unknown field kind {kind!r} (expected poly/gauss/pow/sin)")


def random_polynomial(rng: np.random.Generator, dim: int,
                      exact_degree: int | None = None) -> PolynomialField:
    """Random polynomial with small rational coefficients, for stress draws.

    Six term draws of total degree at most 6, or exactly `exact_degree`
    when that is set (a top-degree term is forced in).
    """
    top = exact_degree if exact_degree is not None else 6
    quarters: dict[tuple[int, ...], int] = {}  # coefficients in units of 1/4
    for _ in range(6):
        exps = tuple(int(v) for v in rng.integers(0, top + 1, dim))
        if sum(exps) > top:
            continue
        num = int(rng.integers(-2, 3))
        # the draw rng.choice((1, 2, 4)) makes, without its overhead
        den = (1, 2, 4)[int(rng.integers(0, 3))]
        if num:
            quarters[exps] = quarters.get(exps, 0) + num * (4 // den)
    quarters = {e: q for e, q in quarters.items() if q}
    if exact_degree is not None and not any(sum(e) == exact_degree for e in quarters):
        lead = [0] * dim
        for _ in range(exact_degree):
            lead[int(rng.integers(0, dim))] += 1
        quarters[tuple(lead)] = quarters.get(tuple(lead), 0) + 2
    if not quarters:
        quarters[(0,) * dim] = 4
    return PolynomialField({e: Fraction(q, 4) for e, q in quarters.items()}, dim=dim)


def scan_corpus(dim: int) -> list[AnalyticField]:
    """Smooth corpus members defined on all of [-1, 1]^dim.

    The radial-power member is excluded here because its domain omits a
    ball at the origin; scan it on an origin-avoiding box instead.
    """
    if dim == 1:
        return [
            parse_field("poly:x0^3-x0"),
            parse_field("poly:0.5*x0^4-x0^2+x0"),
            parse_field("gauss:a=1", dim=1),
            parse_field("sin:w=3"),
        ]
    if dim == 2:
        return [
            parse_field("poly:x0^3+x0*x1^2-x1"),
            parse_field("poly:x0^2*x1-0.5*x1^2"),
            parse_field("gauss:a=1", dim=2),
            parse_field("sin:w=3,2"),
        ]
    if dim == 3:
        return [
            parse_field("poly:x0^2*x1+x2^3-x0*x2"),
            parse_field("gauss:a=1", dim=3),
            parse_field("sin:w=2,1,1"),
        ]
    raise ConfigError(f"no standard corpus for dimension {dim}")
