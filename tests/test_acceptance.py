"""Acceptance gate: ten binding criteria with pinned tolerances.

Each test prints exactly one PASS/FAIL line to the terminal (bypassing
capture) so the gate can be audited from the test log alone.  Budgets
are wall-clock seconds measured around the workload of the criterion.
"""

import math
import time

import numpy as np
import pytest

from sobolev_pointwise import (
    Box,
    Domain,
    GaussianField,
    GridSpec,
    Mollifier,
    PairSampler,
    SampledField,
    SinusoidField,
    forward_difference,
    g_integral,
    identity_suite,
    lemma1_scan,
    lens_volume,
    main_inequality_scan,
    mollified_scan,
    node_discard_check,
    parse_field,
    QuadratureRule,
    sample,
    scan_corpus,
    segment_ratio_constant,
    telescope_residual,
    triebel_scan,
    young_check,
)
from lens_reference import cap_profile_volume
from sobolev_pointwise.cli import main as cli_main

GRID_1D = GridSpec.cube(-1.0, 1.0, 201, 1)
GRID_2D = GridSpec.cube(-1.0, 1.0, 201, 2)

TOL_LAGRANGE = 1e-10
TOL_TELESCOPE = 1e-12
TOL_INTEGRAL = 1e-9
TOL_C3 = 1e-12
TOL_C2_MC = 1e-3
TOL_LENS_QUAD = 1e-6
SLACK = 0.05
MOLLIFIED_BAND = 0.05

MC_SEED = 2
MC_SAMPLES = 10_000_000


def _line(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"CRITERION {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}",
              flush=True)


def _domain(grid):
    return Domain(Box.of_grid(grid))


def _sampler(grid, pairs, seed, min_sep=0.05, max_sep=0.4):
    return PairSampler(_domain(grid), pairs, seed, min_sep, max_sep)


def test_criterion_01_identity_suite(capsys):
    """1000-draw identity suite, interpolation route within 1e-10."""
    t0 = time.perf_counter()
    suite = identity_suite(draws=1000, seed=0)
    dt = time.perf_counter() - t0
    lagrange = suite["identities"]["lagrange_vs_difference"]
    ok = (suite["passed"] and suite["draws"] == 1000
          and lagrange["max_residual"] <= TOL_LAGRANGE
          and lagrange["tolerance"] == TOL_LAGRANGE
          and dt < 10.0)
    _line(capsys, 1, ok,
          f"identity suite 1000 draws, lagrange residual "
          f"{lagrange['max_residual']:.2e} <= {TOL_LAGRANGE:g}, {dt:.1f} s "
          f"(budget 10 s)")
    assert ok


def test_criterion_02_telescoping(capsys):
    """500 dedicated telescoping draws at 1e-12 relative residual."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    fields = scan_corpus(1) + scan_corpus(2)
    worst = 0.0
    for i in range(500):
        f = fields[i % len(fields)]
        x = rng.uniform(-0.6, 0.6, size=f.dim)
        direction = rng.normal(size=f.dim)
        direction /= np.linalg.norm(direction)
        h = rng.uniform(0.01, 0.08) * direction
        order = 1 + i % 6
        delta = forward_difference(f, x, h, order)
        residual = abs(telescope_residual(f, x, h, order))
        worst = max(worst, residual / (1.0 + abs(delta)))
    dt = time.perf_counter() - t0
    ok = worst <= TOL_TELESCOPE and dt < 5.0
    _line(capsys, 2, ok,
          f"telescoping 500 draws, worst relative residual {worst:.2e} "
          f"<= {TOL_TELESCOPE:g}, {dt:.1f} s (budget 5 s)")
    assert ok


def test_criterion_03_integral_representation(capsys):
    """Both quadrature routes reproduce the difference to 1e-9."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    fields = scan_corpus(1) + scan_corpus(2)
    rules = (QuadratureRule.gauss_tensor(), QuadratureRule.irwin_hall())
    worst = 0.0
    draws = 0
    for order in (1, 2, 3, 4):
        for f in fields:
            for _ in range(3):
                x = rng.uniform(-0.5, 0.5, size=f.dim)
                direction = rng.normal(size=f.dim)
                direction /= np.linalg.norm(direction)
                h = rng.uniform(0.02, 0.1) * direction
                want = forward_difference(f, x, h, order)
                for rule in rules:
                    got = g_integral(f, x, h, order, rule=rule)
                    worst = max(worst, abs(got - want) / (1.0 + abs(want)))
                draws += 1
    dt = time.perf_counter() - t0
    ok = worst <= TOL_INTEGRAL and dt < 30.0
    _line(capsys, 3, ok,
          f"integral form, {draws} draws x 2 rules, worst relative deviation "
          f"{worst:.2e} <= {TOL_INTEGRAL:g}, {dt:.1f} s (budget 30 s)")
    assert ok


def test_criterion_04_geometry_constants(capsys):
    """Segment constants: exact line value, pinned 3-d value, MC cross-check."""
    t0 = time.perf_counter()
    c1 = segment_ratio_constant(1)
    c2 = segment_ratio_constant(2)
    c3 = segment_ratio_constant(3)
    exact_line = c1 == 2.0
    pinned_3d = abs(c3 - 3.2) <= TOL_C3

    rng = np.random.default_rng(MC_SEED)
    hits = in_ball = 0
    for _ in range(MC_SAMPLES // 1_000_000):
        pts = rng.uniform(-1.0, 1.0, size=(1_000_000, 2))
        inside = np.einsum("ij,ij->i", pts, pts) <= 1.0
        in_ball += int(inside.sum())
        shifted = pts[inside].copy()
        shifted[:, 0] -= 1.0
        hits += int((np.einsum("ij,ij->i", shifted, shifted) <= 1.0).sum())
    c2_mc = in_ball / hits
    mc_ok = abs(c2 - c2_mc) <= TOL_C2_MC

    quad_worst = 0.0
    for n in (2, 3):
        for r in (0.5, 1.0, 1.7):
            for d in (0.2 * r, r, 1.6 * r):
                closed = lens_volume(n, r, d)
                quad = cap_profile_volume(n, r, d)
                quad_worst = max(quad_worst, abs(quad - closed))
    quad_ok = quad_worst <= TOL_LENS_QUAD
    dt = time.perf_counter() - t0
    ok = exact_line and pinned_3d and mc_ok and quad_ok and dt < 30.0
    _line(capsys, 4, ok,
          f"constants C(1)={c1:g} exact, |C(3)-3.2|={abs(c3 - 3.2):.1e} <= "
          f"{TOL_C3:g}, |C(2)-MC|={abs(c2 - c2_mc):.1e} <= {TOL_C2_MC:g} "
          f"(10^7 samples, seed {MC_SEED}), lens quadrature residual "
          f"{quad_worst:.1e} <= {TOL_LENS_QUAD:g}, {dt:.1f} s (budget 30 s)")
    assert ok


def test_criterion_05_first_order_scans(capsys):
    """First-order scans over the corpus in one and two dimensions."""
    t0 = time.perf_counter()
    total = violations = 0
    worst = 0.0
    for grid, dim in ((GRID_1D, 1), (GRID_2D, 2)):
        for i, f in enumerate(scan_corpus(dim)):
            report = lemma1_scan(f, grid, _sampler(grid, 10_000, 100 + i),
                                 slack=SLACK)
            total += report.n_pairs
            violations += report.n_violations
            worst = max(worst, report.max_ratio)
    dt = time.perf_counter() - t0
    ok = violations == 0 and total == 80_000 and dt < 120.0
    _line(capsys, 5, ok,
          f"first-order corpus scans, {total} pairs, {violations} violations "
          f"at slack {SLACK:g}, max ratio {worst:.3f}, {dt:.1f} s (budget 120 s)")
    assert ok


def test_criterion_06_higher_order_scans(capsys):
    """Higher-order scans: orders 2 and 3 in 1-d, order 2 in 2-d."""
    t0 = time.perf_counter()
    total = violations = 0
    worst = 0.0
    jobs = ([(GRID_1D, 1, order) for order in (2, 3)] + [(GRID_2D, 2, 2)])
    for grid, dim, order in jobs:
        for i, f in enumerate(scan_corpus(dim)):
            report = main_inequality_scan(f, order, grid,
                                          _sampler(grid, 10_000, 200 + i),
                                          slack=SLACK)
            total += report.n_pairs
            violations += report.n_violations
            worst = max(worst, report.max_ratio)
    dt = time.perf_counter() - t0
    ok = violations == 0 and total == 120_000 and dt < 180.0
    _line(capsys, 6, ok,
          f"higher-order scans (m=2,3 in 1-d; m=2 in 2-d), {total} pairs, "
          f"{violations} violations, max ratio {worst:.3f}, {dt:.1f} s "
          f"(budget 180 s)")
    assert ok


def test_criterion_07_node_discarding(capsys):
    """Interior-node discarding bound for orders one to three."""
    t0 = time.perf_counter()
    total = violations = 0
    worst = 0.0
    fields = (SinusoidField((2.5,)), GaussianField(1.5))
    for order in (1, 2, 3):
        for i, f in enumerate(fields):
            report = node_discard_check(f, order, GRID_1D,
                                        _sampler(GRID_1D, 2000, 300 + i),
                                        slack=SLACK)
            total += report.n_pairs
            violations += report.n_violations
            worst = max(worst, report.max_ratio)
    dt = time.perf_counter() - t0
    ok = violations == 0 and total == 12_000 and dt < 60.0
    _line(capsys, 7, ok,
          f"node discarding m=1..3, {total} pairs, {violations} violations, "
          f"max ratio {worst:.3f}, {dt:.1f} s (budget 60 s)")
    assert ok


def test_criterion_08_mollification(capsys):
    """Young checks across the ladder and mollified-scan consistency."""
    t0 = time.perf_counter()
    grid = GRID_1D
    epsilons = (0.2, 0.1, 0.05)
    exponents = (1.0, 1.5, 2.0, 4.0, math.inf)
    rng = np.random.default_rng(8)
    young_ok = True
    for eps in epsilons:
        phi = Mollifier(eps, 1)
        cells = phi.margin_cells(grid.spacing)
        for p in exponents:
            values = rng.uniform(0.0, 1.0, size=grid.points)
            mask = np.ones(grid.points, dtype=bool)
            inner = tuple(slice(2 * c, n - 2 * c)
                          for c, n in zip(cells, grid.points))
            mask[inner] = False
            values[mask] = 0.0
            u = SampledField(grid, values)
            young_ok = young_ok and young_check(u, phi, p).passed

    f = SinusoidField((3.0,))
    base = main_inequality_scan(f, 1, grid, _sampler(grid, 3000, 21, 0.05, 0.3),
                                slack=SLACK)
    scans_ok = base.passed
    smallest = None
    for eps in epsilons:
        report = mollified_scan(f, 1, eps, grid,
                                _sampler(grid, 3000, 21, 0.05, 0.3), slack=SLACK)
        scans_ok = scans_ok and report.passed
        smallest = report
    drift = abs(smallest.max_ratio - base.max_ratio) / base.max_ratio
    dt = time.perf_counter() - t0
    ok = young_ok and scans_ok and drift <= MOLLIFIED_BAND and dt < 120.0
    _line(capsys, 8, ok,
          f"Young checks p={{1,1.5,2,4,inf}} x eps={{0.2,0.1,0.05}} all pass, "
          f"mollified scans clean, smallest-eps max-ratio drift {drift:.2%} "
          f"<= {MOLLIFIED_BAND:.0%}, {dt:.1f} s (budget 120 s)")
    assert ok


def test_criterion_09_negative_controls(capsys, tmp_path):
    """Zero coefficient field and corrupted binomial table must fail."""
    t0 = time.perf_counter()
    grid = GRID_1D
    g = SampledField(grid, np.zeros(grid.points))
    report = triebel_scan(GaussianField(1.0), 2, 2.0, g,
                          _sampler(grid, 500, 17), slack=SLACK)
    zero_flagged = (not report.passed
                    and report.n_violations == report.n_pairs
                    and math.isinf(report.max_ratio))
    clean_exit = cli_main(["identities", "--draws", "60"]) == 0
    corrupt_exit = cli_main(["identities", "--draws", "60",
                             "--corrupt-binomial"]) == 1
    dt = time.perf_counter() - t0
    ok = zero_flagged and clean_exit and corrupt_exit and dt < 30.0
    _line(capsys, 9, ok,
          f"negative controls: zero coefficient flags {report.n_violations}/"
          f"{report.n_pairs} pairs with infinite ratio, corrupted table exits 1, "
          f"{dt:.1f} s (budget 30 s)")
    assert ok


def test_criterion_10_determinism(capsys, tmp_path):
    """Same-seed command-line runs write byte-identical reports."""
    t0 = time.perf_counter()
    args = ["verify", "--scan", "main", "--m", "2", "--field", "sin:w=2.5",
            "--grid", "-1:1:201", "--pairs", "2000", "--seed", "9"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    code_a = cli_main(args + ["--out", str(a)])
    code_b = cli_main(args + ["--out", str(b)])
    identical = a.read_bytes() == b.read_bytes()
    dt = time.perf_counter() - t0
    ok = code_a == 0 and code_b == 0 and identical and dt < 60.0
    _line(capsys, 10, ok,
          f"determinism: two seed-9 runs wrote {a.stat().st_size} identical "
          f"bytes, {dt:.1f} s (budget 60 s)")
    assert ok
