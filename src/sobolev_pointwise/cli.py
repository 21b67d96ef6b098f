"""Command-line front end for the identity suite, scans, and geometry tables.

Subcommands: `identities` (exact algebraic identities), `verify`
(inequality scans), `geometry` (ball/lens volumes and the segment
constant), `mollify` (Young checks plus mollified scans), and `triebel`
(the all-node-sum bound with a supplied coefficient choice).

Each subcommand declares its own options with their defaults.  A JSON
config file (`--config`) holds values for them, which replace those
defaults; explicit flags win over the file.  Exit codes:
0 all checks passed, 1 a check failed, 2 usage or configuration error,
3 infeasible configuration (nothing admissible to scan).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time

import numpy as np

from .differences import binomial
from .exceptions import ConfigError, DomainError, EmptyScanError, UnsupportedOrderError
from .fields import Box, GridSpec, SampledField, parse_field, sample
from .maximal import ball_volume, ladder_config, lens_volume, segment_ratio_constant
from .mollify import Mollifier, default_epsilons, young_check
from .verify import (
    Domain,
    PairSampler,
    _check_hatl_exponent,
    _check_scan,
    _check_triebel_exponent,
    _json_text,
    all_node_coefficient,
    hatl_scan,
    identity_suite,
    main_inequality_scan,
    mollified_scan,
    node_discard_check,
    triebel_scan,
)


def _corrupted_binomial(l: int, j: int) -> int:
    """Fault-injection table: one coefficient is off by one."""
    value = binomial(l, j)
    if (l, j) == (4, 2):
        return value + 1
    return value


def _parse_grid(text: str, dim: int | None) -> GridSpec:
    chunks = [c for c in text.split(";") if c.strip()]
    axes = []
    for chunk in chunks:
        parts = chunk.split(":")
        if len(parts) != 3:
            raise ConfigError(f"grid axis {chunk!r} must be lo:hi:points")
        try:
            axes.append((float(parts[0]), float(parts[1]), int(parts[2])))
        except ValueError as exc:
            raise ConfigError(f"cannot parse grid axis {chunk!r}: {exc}") from exc
    if len(axes) == 1 and dim is not None and dim > 1:
        axes = axes * dim
    if dim is not None and len(axes) != dim:
        raise ConfigError(f"grid has {len(axes)} axes but dimension {dim} was requested")
    lo, hi, pts = zip(*axes)
    return GridSpec(lo, hi, pts)


def _parse_domain(text: str, grid: GridSpec) -> Domain:
    if text in ("full", "box", ""):
        return Domain(grid)
    if text.startswith("hole="):
        body = text[len("hole="):]
        try:
            lo_text, hi_text = body.split(":")
            lo = tuple(float(v) for v in lo_text.split(","))
            hi = tuple(float(v) for v in hi_text.split(","))
        except ValueError as exc:
            raise ConfigError(
                f"hole domain must be hole=l0,l1,..:h0,h1,.., got {text!r}") from exc
        return Domain(grid, hole=Box(lo, hi))
    raise ConfigError(f"unknown domain spec {text!r} (use 'full' or 'hole=lo:hi')")


def _parse_float_list(text: str | None, name: str) -> list[float]:
    try:
        return [float(piece) for piece in (text or "").split(",") if piece.strip()]
    except ValueError as exc:
        raise ConfigError(f"cannot parse the {name} list {text!r}") from exc


def _own_options(command: argparse.ArgumentParser) -> dict:
    """A subcommand's options by dest, but for --help, --config and --dump-config."""
    return {a.dest: a for a in command._actions
            if a.dest not in ("help", "config", "dump_config")}


def _config_defaults(path: str, command: argparse.ArgumentParser) -> dict:
    """The JSON object in `path` as defaults of `command`: each key one of
    its own options, each value read as its flag would read that text (so
    2.5 is no --pairs), and a null keeps the default."""
    try:
        with open(path) as handle:
            file_cfg = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(file_cfg, dict):
        raise ConfigError("the config file must hold a JSON object")
    options = _own_options(command)
    unknown = set(file_cfg) - set(options)
    if unknown:
        raise ConfigError(f"unknown config keys for {command.prog}: {sorted(unknown)}")
    defaults = {}
    for key, value in file_cfg.items():
        action = options[key]
        if value is None:
            continue
        if action.nargs == 0:
            if not isinstance(value, bool):
                raise ConfigError(f"config key {key!r} must be true or false")
        else:
            try:
                value = (action.type or str)(str(value))
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"config key {key!r}: {exc}") from exc
            if action.choices is not None and value not in action.choices:
                raise ConfigError(f"config key {key!r} must be one of "
                                  f"{list(action.choices)}, got {value!r}")
        defaults[key] = value
    return defaults


def _field_and_grid(cfg: dict):
    grid_text, dim = cfg["grid"], cfg["dim"]
    if dim is None and ";" in grid_text:
        dim = len([c for c in grid_text.split(";") if c.strip()])
    field = parse_field(cfg["field"], dim=dim)
    grid = _parse_grid(grid_text, field.dim)
    return field, grid


def _sampler(cfg: dict, grid: GridSpec) -> PairSampler:
    domain = _parse_domain(cfg["domain"], grid)
    return PairSampler(domain, cfg["pairs"], cfg["seed"], cfg["min_sep"], cfg["max_sep"])


def _write_json(path: str | None, data) -> None:
    """Write `data` in the reports' JSON format (`_json_text`) to `path`, if one was given."""
    if path:
        with open(path, "w") as handle:
            handle.write(_json_text(data))
        print(f"report written to {path}")


def _write_report(report, cfg: dict) -> None:
    if cfg["out"] and cfg["format"] == "csv":
        report.write_csv(cfg["out"])
        print(f"report written to {cfg['out']}")
    else:
        _write_json(cfg["out"], report.to_dict())


def _print_report(label: str, report) -> None:
    state = "PASS" if report.passed else "FAIL"
    print(f"[{label}] pairs={report.n_pairs} violations={report.n_violations} "
          f"max_ratio={report.max_ratio:.6g} p99={report.quantiles['p99']:.6g} "
          f"slack={report.slack:g} {state}")


def _cmd_identities(cfg: dict) -> int:
    binom = _corrupted_binomial if cfg["corrupt_binomial"] else binomial
    suite = identity_suite(draws=cfg["draws"], seed=cfg["seed"], binom=binom)
    for name, entry in sorted(suite["identities"].items()):
        state = "PASS" if entry["passed"] else "FAIL"
        print(f"[identities] {name}: max_residual={entry['max_residual']:.3e} "
              f"tolerance={entry['tolerance']:g} {state}")
    _write_json(cfg["out"], suite)
    print("identities:", "PASS" if suite["passed"] else "FAIL")
    return 0 if suite["passed"] else 1


def _cmd_verify(cfg: dict) -> int:
    field, grid = _field_and_grid(cfg)
    sampler = _sampler(cfg, grid)
    scan = cfg["scan"].replace("-", "_")
    if cfg["s"] is not None and scan != "hatl":
        raise ConfigError("--s applies only to --scan hatl")
    if scan == "lemma1" and cfg["m"] != 1:
        raise ConfigError("--scan lemma1 is the order-1 scan; use --scan main for --m "
                          f"{cfg['m']}")
    order = 1 if scan == "lemma1" else cfg["m"]
    slack = cfg["slack"]
    _check_scan(field, order, slack)
    s = cfg["s"] if cfg["s"] is not None else float(order)
    if scan == "hatl":
        _check_hatl_exponent(s, order)
    config = None
    if cfg["delta"] is not None:
        if scan == "node_discard":
            raise ConfigError("--delta does not apply to --scan node-discard")
        config = dataclasses.replace(ladder_config((cfg["delta"],), max(grid.spacing)),
                                     boundary=cfg["boundary"] or "reject")
    elif cfg["boundary"] is not None:
        raise ConfigError("--boundary needs --delta")
    if scan in ("lemma1", "main"):
        report = main_inequality_scan(field, order, grid, sampler, config, slack=slack)
    elif scan == "node_discard":
        report = node_discard_check(field, order, grid, sampler, slack=slack)
    else:
        g = all_node_coefficient(field, order, grid, sampler, config)
        report = hatl_scan(field, order, s, g, sampler, slack=slack)
    _print_report(scan, report)
    _write_report(report, cfg)
    return 0 if report.passed else 1


def _cmd_geometry(cfg: dict) -> int:
    dims = [cfg["dim"]] if cfg["dim"] is not None else [1, 2, 3]
    radius, distance = cfg["radius"], cfg["distance"]
    if not (min(dims) >= 1 and 0 < radius < math.inf and 0 <= distance < math.inf):
        raise ConfigError("geometry needs dim >= 1, a finite radius > 0 and a finite "
                          "distance >= 0")
    rows = []
    for n in dims:
        rows.append({
            "dim": n,
            "ball_volume": ball_volume(n, radius),
            "lens_volume": lens_volume(n, radius, distance),
            "segment_ratio_constant": segment_ratio_constant(n),
        })
        print(f"[geometry] dim={n} ball({radius:g})={rows[-1]['ball_volume']:.12g} "
              f"lens({radius:g},{distance:g})={rows[-1]['lens_volume']:.12g} "
              f"C={rows[-1]['segment_ratio_constant']:.12g}")
    _write_json(cfg["out"], {"radius": radius, "distance": distance, "rows": rows})
    return 0


def _young_support(sampled: SampledField, phi: Mollifier) -> SampledField | None:
    """The sampled field zeroed within twice the kernel half-width of the
    walls, or None where that leaves no node: a Young check on the zero
    field compares 0 with 0 and cannot fail."""
    grid = sampled.grid
    cells = phi.margin_cells(grid.spacing)
    if any(4 * c >= n for c, n in zip(cells, grid.points)):
        return None
    supported = np.array(sampled.values)
    mask = np.ones(grid.points, dtype=bool)
    mask[tuple(slice(2 * c, n - 2 * c) for c, n in zip(cells, grid.points))] = False
    supported[mask] = 0.0
    return SampledField(grid, supported)


def _cmd_mollify(cfg: dict) -> int:
    field, grid = _field_and_grid(cfg)
    order, slack, profile = cfg["m"], cfg["slack"], cfg["profile"]
    _check_scan(field, order, slack)
    sampler = _sampler(cfg, grid)
    explicit = _parse_float_list(cfg["eps"], "eps")
    epsilons = explicit or list(default_epsilons(grid, profile, sampler.max_sep))
    exponents = _parse_float_list(cfg["p"], "p") or [1.0, 2.0, math.inf]
    if not all(p > 0 for p in exponents):
        raise ConfigError("norm exponents must be positive or inf")
    phis = [Mollifier(eps, grid.dim, profile=profile) for eps in epsilons]
    sampled = sample(field, grid)
    checks = [(phi, _young_support(sampled, phi)) for phi in phis]
    empty = [phi.epsilon for phi, u in checks if u is None]
    # a default scale with nothing to check is dropped; a requested one is infeasible
    if empty and (explicit or len(empty) == len(checks)):
        raise EmptyScanError(
            f"at eps={empty[0]:g} no node is farther than twice the kernel half-width "
            "from the walls, so the Young check has no field to check")
    all_ok = True
    reports = {"young": [], "scans": []}
    for phi, u in checks:
        if u is None:
            continue
        eps = phi.epsilon
        for p in exponents:
            rep = young_check(u, phi, p)
            state = "PASS" if rep.passed else "FAIL"
            print(f"[young] eps={eps:g} p={p:g} lhs={rep.lhs:.6g} rhs={rep.rhs:.6g} {state}")
            reports["young"].append({"eps": eps, **rep.to_dict()})
            all_ok = all_ok and rep.passed
        scan = mollified_scan(field, order, eps, grid, sampler,
                              slack=slack, profile=profile)
        _print_report(f"mollified eps={eps:g}", scan)
        reports["scans"].append(scan.to_dict())
        all_ok = all_ok and scan.passed
    _write_json(cfg["out"], reports)
    print("mollify:", "PASS" if all_ok else "FAIL")
    return 0 if all_ok else 1


def _cmd_triebel(cfg: dict) -> int:
    field, grid = _field_and_grid(cfg)
    order, slack = cfg["m"], cfg["slack"]
    _check_scan(field, order, slack)
    s = cfg["s"] if cfg["s"] is not None else float(order)
    _check_triebel_exponent(s)
    sampler = _sampler(cfg, grid)
    if cfg["g"] == "zero":
        g = SampledField(grid, np.zeros(grid.points))
    else:
        g = all_node_coefficient(field, order, grid, sampler)
    report = triebel_scan(field, order, s, g, sampler, slack=slack)
    _print_report("triebel", report)
    _write_report(report, cfg)
    return 0 if report.passed else 1


_COMMANDS = {
    "identities": _cmd_identities,
    "verify": _cmd_verify,
    "geometry": _cmd_geometry,
    "mollify": _cmd_mollify,
    "triebel": _cmd_triebel,
}


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser and its subcommand parsers by name; each subcommand
    declares its own options with their defaults."""
    parser = argparse.ArgumentParser(
        prog="sobolev-pointwise",
        description="Finite-difference identities and pointwise inequality scans.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", help="JSON config file of this command's options; "
                                        "explicit flags win")
        p.add_argument("--dump-config", action="store_true",
                       help="print the command's options before running")
        p.add_argument("--out", help="write the report here")
        return p

    def scan_command(name, help):
        p = command(name, help)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--field", default="sin:w=3")
        p.add_argument("--grid", default="-1:1:201")
        p.add_argument("--dim", type=int)
        p.add_argument("--m", type=int, default=1)
        p.add_argument("--pairs", type=int, default=2000)
        p.add_argument("--min-sep", type=float, default=0.05)
        p.add_argument("--max-sep", type=float, default=0.4)
        p.add_argument("--slack", type=float, default=0.05)
        p.add_argument("--domain", default="full")
        return p

    p = command("identities", "run the exact-identity suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--draws", type=int, default=200)
    p.add_argument("--corrupt-binomial", action="store_true",
                   help="fault injection: corrupt one binomial coefficient "
                        "(the suite must then fail)")

    p = scan_command("verify", "run an inequality scan")
    p.add_argument("--format", choices=["json", "csv"], default="json",
                   help="csv: one row per sampled pair")
    p.add_argument("--scan", choices=["lemma1", "main", "node-discard", "hatl"],
                   default="lemma1")
    p.add_argument("--s", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--boundary", choices=["reject", "clip"])

    p = command("geometry", "ball and lens volumes, segment constant")
    p.add_argument("--dim", type=int)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--distance", type=float, default=1.0)

    p = scan_command("mollify", "Young checks and mollified scans")
    p.add_argument("--eps", help="comma list of mollifier scales")
    p.add_argument("--p", default="1,2,inf", help="comma list of norm exponents (inf allowed)")
    p.add_argument("--profile", choices=["bump", "gauss"], default="bump")

    p = scan_command("triebel", "all-node-sum bound scan")
    p.add_argument("--format", choices=["json", "csv"], default="json",
                   help="csv: one row per sampled pair")
    p.add_argument("--s", type=float)
    p.add_argument("--g", choices=["auto", "zero"], default="auto",
                   help="coefficient field: auto builds m^m times the maximal "
                        "coefficient, zero is the negative control")
    return parser, sub.choices


# Values for these flags may start with a dash (negative grid bounds,
# polynomials with a leading minus), which argparse would misread as an
# option.  Joining flag and value with "=" sidesteps that.
_VALUE_FLAGS = ("--grid", "--field", "--domain", "--eps", "--p")


def _join_values(argv):
    out, it = [], iter(argv)
    for token in it:
        if token in _VALUE_FLAGS:
            value = next(it, None)
            out.append(token if value is None else f"{token}={value}")
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    argv = _join_values(sys.argv[1:] if argv is None else argv)
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    command = commands[args.command]
    start = time.time()
    try:
        if args.config:
            # the file's values become the command's defaults, so flags still win
            command.set_defaults(**_config_defaults(args.config, command))
            args = parser.parse_args(argv)
        cfg = vars(args)
        if args.dump_config:
            print(_json_text({key: cfg[key] for key in _own_options(command)}), end="")
        code = _COMMANDS[args.command](cfg)
    except EmptyScanError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, DomainError, UnsupportedOrderError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    print(f"done in {time.time() - start:.2f} s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
