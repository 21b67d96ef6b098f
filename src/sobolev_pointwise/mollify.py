"""Discrete mollification of sampled fields and Lp norm bookkeeping.

A mollifier is a nonnegative kernel of small support, sampled on the
grid lattice and normalized to unit discrete mass.  Convolving a sampled
field with it smooths the field while, by convexity, never increasing
any Lp norm of a field supported away from the boundary (the discrete
Young inequality).  The convolved values within one kernel half-width
of the boundary mix with zero padding; the mollified scan keeps its
pairs a kernel margin (`Mollifier.margin_length`) from the walls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .exceptions import ConfigError, EmptyScanError
from .fields import GridSpec, SampledField, _integer

__all__ = [
    "Mollifier",
    "convolve",
    "lp_norm",
    "young_check",
    "YoungReport",
    "default_epsilons",
]

# A mollifier must be resolved by at least this many grid samples across
# its support, or the discrete kernel misrepresents the profile.
_MIN_SAMPLES_ACROSS = 8
# Support half-width in whole cells that gives that many samples, 2c + 1.
_MIN_CELLS = _MIN_SAMPLES_ACROSS // 2
# Relative slack of the Young check ||u * phi||_p <= ||u||_p.
_YOUNG_TOLERANCE = 1e-6


@dataclass(frozen=True)
class Mollifier:
    """Nonnegative smoothing kernel of scale epsilon.

    Profiles: "bump" is the compactly supported exp(1 / (t^2 - 1)) bump
    with support radius epsilon; "gauss" is a Gaussian of width epsilon
    truncated at three widths.  The lattice taps are normalized to unit
    mass, so convolution preserves constants away from the boundary.
    """

    epsilon: float
    dim: int
    profile: str = "bump"

    def __post_init__(self):
        if not 0 < self.epsilon < math.inf:
            raise ConfigError("mollifier scale must be finite and positive")
        object.__setattr__(self, "dim", _integer(self.dim, "the mollifier dimension", 1))
        if self.profile not in ("bump", "gauss"):
            raise ConfigError(f"unknown mollifier profile {self.profile!r}")

    @property
    def support_radius(self) -> float:
        if self.profile == "bump":
            return self.epsilon
        return 3.0 * self.epsilon

    def _profile_values(self, r2: np.ndarray) -> np.ndarray:
        if self.profile == "bump":
            t2 = r2 / (self.epsilon * self.epsilon)
            out = np.zeros_like(t2)
            inside = t2 < 1.0
            out[inside] = np.exp(1.0 / (t2[inside] - 1.0))
            return out
        out = np.exp(-0.5 * r2 / self.epsilon ** 2)
        out[r2 > (3.0 * self.epsilon) ** 2] = 0.0
        return out

    def taps(self, spacing: tuple[float, ...]) -> np.ndarray:
        """Normalized kernel sampled on the grid lattice.

        Raises `ConfigError` when the support spans fewer than 8 samples
        on some axis (the kernel would be unresolved).
        """
        return _taps_cached(self, tuple(float(s) for s in spacing))

    def margin_cells(self, spacing: tuple[float, ...]) -> tuple[int, ...]:
        """Half-width of the tap stencil in cells, per axis."""
        taps = self.taps(spacing)
        return tuple((s - 1) // 2 for s in taps.shape)

    def margin_length(self, spacing: tuple[float, ...]) -> float:
        """The widest stencil half-width plus one cell, as a length: the
        margin a mollified scan keeps from the walls."""
        return max((c + 1) * sp for c, sp in zip(self.margin_cells(spacing), spacing))

    def leaves_room(self, grid: GridSpec, delta: float) -> bool:
        """Whether pairs up to `delta` apart fit in the box with the kernel
        margin kept from every wall: the mollified scan's interior is not empty."""
        return 2.0 * (self.margin_length(grid.spacing) + delta) < min(grid.extent)


def _support_cells(mollifier: Mollifier, spacing: tuple[float, ...]) -> list[int]:
    """Whole grid cells inside the support radius, per axis."""
    return [int(math.floor(mollifier.support_radius / sp)) for sp in spacing]


@lru_cache(maxsize=None)
def _taps_cached(mollifier: Mollifier, spacing: tuple[float, ...]) -> np.ndarray:
    if len(spacing) != mollifier.dim:
        raise ConfigError("spacing length does not match the mollifier dimension")
    cells = _support_cells(mollifier, spacing)
    if min(cells) < _MIN_CELLS:
        raise ConfigError(
            f"mollifier support {mollifier.support_radius:g} spans fewer than "
            f"{_MIN_SAMPLES_ACROSS} grid samples; refine the grid or enlarge epsilon")
    axes = [np.arange(-c, c + 1) * sp for c, sp in zip(cells, spacing)]
    mesh = np.meshgrid(*axes, indexing="ij")
    r2 = sum(g * g for g in mesh)
    taps = mollifier._profile_values(np.asarray(r2, dtype=float))
    total = taps.sum()
    if not total > 0:
        raise ConfigError("mollifier taps vanish on the lattice; enlarge epsilon")
    taps = taps / total
    taps.setflags(write=False)
    return taps


def convolve(u: SampledField, mollifier: Mollifier) -> SampledField:
    """Discrete convolution of a sampled field with a mollifier.

    Zero padding supplies out-of-grid values, so the values within one
    kernel half-width (`Mollifier.margin_cells`) of the boundary are
    contaminated; a kernel wider than the grid is refused.  Each tap over
    2^-52 (as in scipy.ndimage) adds its weight times a padded-field slice.
    """
    if mollifier.dim != u.grid.dim:
        raise ConfigError("mollifier dimension does not match the grid")
    taps = mollifier.taps(u.grid.spacing)
    if any(t > p for t, p in zip(taps.shape, u.grid.points)):
        raise ConfigError("mollifier support exceeds the grid box")
    flipped = np.flip(taps)
    padded = np.pad(u.values, [((t - 1) // 2,) * 2 for t in taps.shape])
    out = np.zeros(u.values.shape)
    for k in zip(*np.nonzero(flipped > 2.0 ** -52)):
        out += flipped[k] * padded[tuple(slice(j, j + n) for j, n in zip(k, u.grid.points))]
    return SampledField(u.grid, out)


def lp_norm(u: SampledField, p: float) -> float:
    """Trapezoid-weighted Lp norm of a sampled field; p = inf gives the max norm."""
    if p == math.inf:
        return float(np.max(np.abs(u.values)))
    if not p > 0:
        raise ValueError("the exponent must be positive or inf")
    weights = u.grid.trapezoid_weights
    return float(np.sum(weights * np.abs(u.values) ** p) ** (1.0 / p))


@dataclass(frozen=True)
class YoungReport:
    """Outcome of one discrete Young inequality check."""

    p: float
    lhs: float
    rhs: float
    passed: bool

    def to_dict(self) -> dict:
        return {"p": self.p, "lhs": self.lhs, "rhs": self.rhs, "passed": self.passed}


def young_check(u: SampledField, mollifier: Mollifier, p: float) -> YoungReport:
    """Check ||u * phi||_p <= ||u||_p * (1 + `_YOUNG_TOLERANCE`).

    `u` must vanish within one kernel support of the grid boundary, so
    the zero padding used by the convolution tells the truth; otherwise
    a `ConfigError` is raised.
    """
    cells = mollifier.margin_cells(u.grid.spacing)
    interior = tuple(slice(c, n - c) for c, n in zip(cells, u.grid.points))
    mask = np.ones(u.grid.points, dtype=bool)
    mask[interior] = False
    if np.any(u.values[mask] != 0.0):
        raise ConfigError(
            "the field is not supported in the interior eroded by the kernel "
            "support; enlarge the padding before checking the Young inequality")
    smoothed = convolve(u, mollifier)
    lhs = lp_norm(smoothed, p)
    rhs = lp_norm(u, p)
    return YoungReport(p=p, lhs=lhs, rhs=rhs, passed=lhs <= rhs * (1.0 + _YOUNG_TOLERANCE))


def default_epsilons(grid: GridSpec, profile: str = "bump",
                     delta: float = 0.0) -> tuple[float, ...]:
    """Mollification ladder {0.4, 0.2, 0.1} times a quarter of the box side.

    A scale the grid does not resolve (`Mollifier.taps` needs 4 whole
    cells inside the support radius on every axis) is raised to the
    smallest scale it resolves.  A scale that leaves no room for pairs up
    to `delta` apart beside the kernel margin (`Mollifier.leaves_room`)
    is dropped, and so are repeats, so the ladder stays strictly
    decreasing.  Raises `EmptyScanError` when no scale is left.
    """
    def resolved(eps: float) -> bool:
        cells = _support_cells(Mollifier(eps, grid.dim, profile), grid.spacing)
        return min(cells) >= _MIN_CELLS

    smallest = _MIN_CELLS * max(grid.spacing) / Mollifier(1.0, grid.dim, profile).support_radius
    while not resolved(smallest):
        smallest = math.nextafter(smallest, math.inf)
    side = min(grid.extent)
    out: list[float] = []
    for f in (0.4, 0.2, 0.1):
        eps = f * side / 4.0
        eps = eps if resolved(eps) else smallest
        if (not out or eps < out[-1]) and Mollifier(eps, grid.dim, profile).leaves_room(grid, delta):
            out.append(eps)
    if not out:
        raise EmptyScanError(
            f"no default mollifier scale leaves room for pairs {delta:g} apart beside "
            "the kernel margin; refine the grid or lower the separation")
    return tuple(out)
