"""Workload inputs, ops, output checks and traced layers of the scan benchmark.

Importing this module imports `sobolev_pointwise` from the `src`
directory next to the benchmark, never from an installed copy, so a
checkout without the sources fails instead of measuring something else.

Every op gets its own field parameters and sampler seed, drawn from the
workload seed, so no two ops share a coefficient ladder; that matches
command-line use, where each process runs one scan.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import sobolev_pointwise  # noqa: E402
from sobolev_pointwise import differences, fields, verify  # noqa: E402

if Path(sobolev_pointwise.__file__).resolve().parent.parent != SRC:
    raise ImportError(f"sobolev_pointwise was imported from {sobolev_pointwise.__file__}, "
                      f"not from {SRC}")

# Every run times each op of its workload this many times.  The op
# counts below and this pass count are fixed, so that two commits time the
# same op runs however fast the code is.  They were sized so that the
# timed part of a run takes 19-35 s on a 2-vCPU Xeon; `differences` gets
# more ops than `scan3d` because its pure-Python op times vary more.
PASSES = 3

MIN_SEP = 0.05
MAX_SEP = 0.4

# Monomials of the polynomial members of `scan_corpus` when the benchmark
# was defined.  They are copied here so that a change to the corpus cannot
# silently change the benchmark inputs.  Every one has degree >= the
# largest order its workload scans: below that, roundoff gives false
# violations (see perfbench/README.md).
POLY_MONOMIALS = {
    1: [[(3,), (1,)], [(4,), (2,), (1,)]],
    3: [[(2, 1, 0), (0, 0, 3), (1, 0, 1)]],
}
KINDS = {dim: [("poly", m) for m in monos] + [("gauss", None), ("sin", None)]
         for dim, monos in POLY_MONOMIALS.items()}


def _random_field(rng: np.random.Generator, dim: int, kind: str, monomials):
    if kind == "poly":
        coeffs = {}
        for exps in monomials:
            num = int(rng.integers(1, 5)) * (1 if rng.random() < 0.5 else -1)
            coeffs[exps] = Fraction(num, int(rng.choice((1, 2, 4))))
        return fields.PolynomialField(coeffs, dim=dim)
    if kind == "gauss":
        return fields.GaussianField(float(rng.uniform(0.5, 2.0)), dim=dim)
    return fields.SinusoidField(rng.uniform(1.0, 4.0, dim))


@dataclass(frozen=True)
class ScanOp:
    field: fields.AnalyticField
    order: int
    dim: int
    points: int
    pairs: int
    sampler_seed: int

    def run(self):
        # the grid is made here, so its cached node arrays live only as
        # long as the op, as in a one-scan command-line process
        grid = fields.GridSpec.cube(-1.0, 1.0, self.points, self.dim)
        sampler = verify.PairSampler(verify.Domain(verify.Box.of_grid(grid)), self.pairs,
                                     seed=self.sampler_seed, min_sep=MIN_SEP, max_sep=MAX_SEP)
        return verify.main_inequality_scan(self.field, self.order, grid, sampler)

    def check(self, report) -> str | None:
        """Why the report fails, or None.  Finiteness is checked here
        because `build_report` counts a NaN ratio as a pass."""
        if report.n_pairs != self.pairs:
            return f"{report.n_pairs} pairs scored, {self.pairs} requested"
        if report.n_violations:
            return f"{report.n_violations} violations, max ratio {report.max_ratio}"
        for name in ("lhs", "rhs", "ratio"):
            values = getattr(report, name)
            if not np.all(np.isfinite(values)):
                return f"non-finite {name}"
        return None

    @staticmethod
    def fingerprint(report) -> str:
        return report.to_json()


# Tolerances of the identities the difference battery checks, the same
# as `identity_suite` gives them.  Each residual is relative to 1 + the
# identity's own magnitude; 0 means exact.
TOLERANCES = {
    "lagrange_vs_difference": 1e-10,
    "integral_representation": 1e-9,
    "quadrature_cross_check": 1e-9,
    "sign_law": 0.0,
    "taylor_annihilation": 0.0,
    "leading_coefficient": 1e-12,
}


def _battery_field(rng: np.random.Generator, dim: int, index: int):
    """A field and the box its points come from, in rotation: a radial
    power on a positive-orthant box, clear of its excluded ball, a
    random polynomial, or a random Gaussian or sinusoid."""
    if index % 5 == 4:
        box = (np.full(dim, 0.3), np.full(dim, 1.3))
        return fields.PowerField(float(rng.uniform(0.5, 3.0)), dim=dim), box
    box = (np.full(dim, -1.2), np.full(dim, 1.2))
    if index % 3:
        return fields.random_polynomial(rng, dim), box
    return _random_field(rng, dim, ("gauss", "sin")[index // 3 % 2], None), box


def difference_battery(draws: int, seed: int) -> dict:
    """Exact identities of the `differences` layer on random draws.

    These are the identities of `identity_suite` less `annihilation` and
    `telescoping`, whose tolerances float roundoff exceeds on some draws
    (known defect 3 in perfbench/README.md).  Returns each identity's
    largest residual and number of draws.
    """
    rng = np.random.default_rng(seed)
    residuals = {name: [] for name in TOLERANCES}
    for i in range(draws):
        dim = int(rng.integers(1, 4))
        f, (lo, hi) = _battery_field(rng, dim, i)
        order = int(rng.integers(1, 7))
        while True:
            x, y = rng.uniform(lo, hi), rng.uniform(lo, hi)
            if np.linalg.norm(y - x) >= MIN_SEP:
                break
        h = (y - x) / order
        lr = differences.lagrange_remainder(f, x, y, order)
        fd = differences.forward_difference(f, x, h, order)
        residuals["lagrange_vs_difference"].append((lr - fd) / (1.0 + max(abs(lr), abs(fd))))
        gs = differences.g_sum(f, x, h, order)
        residuals["sign_law"].append(gs - (fd if order % 2 == 0 else -fd))

    tensor_rule = differences.QuadratureRule.gauss_tensor()
    collapsed_rule = differences.QuadratureRule.irwin_hall()
    for _ in range(max(draws // 2, 50)):
        dim = int(rng.integers(1, 4))
        poly = fields.random_polynomial(rng, dim)
        order = int(rng.integers(1, 5))
        x = rng.uniform(-1.0, 1.0, dim)
        h = rng.uniform(-0.4, 0.4, dim)
        if not np.any(h):
            h = np.full(dim, 0.1)
        fd = differences.forward_difference(poly, x, h, order)
        den = 1.0 + abs(fd)
        tensor = differences.g_integral(poly, x, h, order, tensor_rule)
        collapsed = differences.g_integral(poly, x, h, order, collapsed_rule)
        residuals["integral_representation"] += [(tensor - fd) / den, (collapsed - fd) / den]
        residuals["quadrature_cross_check"].append((tensor - collapsed) / den)

        order = int(rng.integers(1, 7))
        low = fields.random_polynomial(rng, dim, exact_degree=order - 1)
        xa, ya = rng.uniform(-1.0, 1.0, dim), rng.uniform(-1.0, 1.0, dim)
        if not np.array_equal(xa, ya):
            residuals["taylor_annihilation"].append(
                differences.taylor_remainder(low, xa, ya, order))

        mono_order = int(rng.integers(1, 7))
        mono = fields.PolynomialField({(mono_order,): 1}, dim=1)
        hx = float(rng.uniform(0.05, 0.5))
        fd = differences.forward_difference(mono, [0.0], [hx], mono_order)
        expected = math.factorial(mono_order) * hx ** mono_order
        residuals["leading_coefficient"].append((fd - expected) / (1.0 + abs(expected)))
    # np.max, unlike max, returns NaN if any residual is NaN, so the check fails
    return {name: {"max_residual": float(np.max(np.abs(values))), "draws": len(values)}
            for name, values in residuals.items()}


@dataclass(frozen=True)
class DifferenceOp:
    draws: int
    seed: int

    def run(self):
        return difference_battery(self.draws, self.seed)

    def check(self, result) -> str | None:
        failing = [f"{name} {entry['max_residual']:.3g} > {TOLERANCES[name]:g}"
                   for name, entry in result.items()
                   if not entry["max_residual"] <= TOLERANCES[name]]
        return f"identities failed: {failing}" if failing else None

    @staticmethod
    def fingerprint(result) -> str:
        return json.dumps(result, sort_keys=True)


@dataclass(frozen=True)
class ScanWorkload:
    """`ops` main scans on the cube [-1, 1]^dim; op i takes corpus kind
    i % kinds and order orders[(i // kinds) % len(orders)], so each run
    of kinds * len(orders) ops covers every (kind, order) combination
    once.  `ops` is a multiple of that, so each appears equally often."""

    dim: int
    points: int
    pairs: int
    orders: tuple[int, ...]
    ops: int

    def make_inputs(self, seed: int) -> list[ScanOp]:
        rng = np.random.default_rng(seed)
        kinds = KINDS[self.dim]
        ops = []
        for i in range(self.ops):
            kind, monomials = kinds[i % len(kinds)]
            order = self.orders[(i // len(kinds)) % len(self.orders)]
            sampler_seed = int(rng.integers(2**31))
            ops.append(ScanOp(_random_field(rng, self.dim, kind, monomials), order,
                              self.dim, self.points, self.pairs, sampler_seed))
        return ops


@dataclass(frozen=True)
class DifferenceWorkload:
    draws: int
    ops: int

    def make_inputs(self, seed: int) -> list[DifferenceOp]:
        rng = np.random.default_rng(seed)
        return [DifferenceOp(self.draws, int(rng.integers(2**31))) for _ in range(self.ops)]


WORKLOADS = {
    "scan3d": ScanWorkload(dim=3, points=41, pairs=5_000, orders=(1, 2), ops=12),
    "pairs_dense": ScanWorkload(dim=1, points=2001, pairs=100_000, orders=(2, 3), ops=24),
    "differences": DifferenceWorkload(draws=200, ops=24),
}


def make_inputs(name: str, seed: int):
    return WORKLOADS[name].make_inputs(seed)


# ---------------------------------------------------------------------------
# traced layers


def _points(pts) -> int:
    shape = np.shape(pts)
    return math.prod(shape[:-1]) if len(shape) > 1 else 1


def _node_dirs(result, f, grid, order=1, directions=None) -> dict:
    if directions is None:
        directions = fields.default_directions(grid.dim)
    return {"node_dirs": math.prod(grid.points) * len(np.atleast_2d(directions))}


DIFFERENCE_FUNCTIONS = ("lagrange_remainder", "forward_difference", "g_sum",
                        "g_integral", "taylor_remainder")


def install_layers(tracer) -> None:
    """Wrap each layer's public functions where `verify` and
    the difference battery resolve them, so spans nest under the op."""
    tracer.span(verify, "main_inequality_scan", "verify.main_inequality_scan")
    tracer.span(sys.modules[__name__], "difference_battery", "perfbench.difference_battery",
                lambda result, draws, seed: {"draws": draws})
    tracer.span(verify, "gradient_magnitude_field", "fields.gradient_magnitude_field",
                _node_dirs)
    tracer.span(verify, "ball_average", "maximal.ball_average",
                lambda result, u, radius: {"node_radii": u.values.size})
    tracer.span(verify.PairSampler, "draw", "verify.PairSampler.draw",
                lambda batch, *a, **k: {"attempts": batch.attempts,
                                        "accepted": len(batch.dist)})
    tracer.span(verify, "evaluate_batch", "fields.evaluate_batch",
                lambda result, f, pts: {"points": _points(pts)})
    tracer.span(fields.SampledField, "at", "fields.SampledField.at",
                lambda result, self, pts, *a, **k: {"points": _points(pts)})
    # private helpers: without them the left side and the coefficient
    # read-back on pairs_dense are more than 5% of the op with no span
    tracer.span(verify, "_remainder_batch", "verify._remainder_batch")
    tracer.span(getattr(verify, "_CoefficientLadder", None), "coefficient_at",
                "verify._CoefficientLadder.coefficient_at")
    tracer.span(verify, "build_report", "verify.build_report",
                lambda report, *a, **k: {"pairs": report.n_pairs})
    for name in DIFFERENCE_FUNCTIONS:
        tracer.span(differences, name, "differences." + name)
    tracer.count(differences, "evaluate", "fields.evaluate")
