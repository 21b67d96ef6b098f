"""Command-line behavior: subcommands, config precedence, exit codes."""

import ast
import json
import pathlib
import warnings

import jsonschema
import pytest

from sobolev_pointwise import (
    Domain,
    GridSpec,
    PairSampler,
    all_node_coefficient,
    hatl_scan,
    ladder_config,
    node_discard_check,
    parse_field,
)
from sobolev_pointwise.cli import _build_parser, _own_options, main

ROOT = pathlib.Path(__file__).resolve().parent.parent
CLI_SOURCE = ROOT / "src" / "sobolev_pointwise" / "cli.py"
SCHEMA_FILE = ROOT / "docs" / "report_schema.json"


class TestIdentities:
    def test_clean_run_exits_zero(self, capsys):
        assert main(["identities", "--draws", "40"]) == 0
        out = capsys.readouterr().out
        assert "identities: PASS" in out
        assert out.count("PASS") >= 8

    def test_corrupted_binomial_exits_one(self, capsys):
        assert main(["identities", "--draws", "40", "--corrupt-binomial"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_report_file(self, tmp_path, capsys):
        out = tmp_path / "suite.json"
        assert main(["identities", "--draws", "20", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["passed"] is True
        assert len(data["identities"]) == 8


class TestVerify:
    def test_lemma1(self, capsys):
        code = main(["verify", "--scan", "lemma1", "--field", "sin:w=2",
                     "--grid", "-1:1:161", "--pairs", "200", "--seed", "1"])
        assert code == 0
        assert "PASS" in capsys.readouterr().out

    def test_main_scan_with_json_report(self, tmp_path, capsys):
        out = tmp_path / "scan.json"
        code = main(["verify", "--scan", "main", "--m", "2", "--field", "gauss:a=1.5",
                     "--grid", "-1:1:161", "--pairs", "150", "--seed", "2",
                     "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["n_violations"] == 0
        assert data["params"]["order"] == 2

    def test_csv_report(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        code = main(["verify", "--scan", "lemma1", "--field", "sin:w=2",
                     "--grid", "-1:1:161", "--pairs", "50", "--seed", "0",
                     "--out", str(out), "--format", "csv"])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 51
        assert "np.float64" not in lines[1]

    def test_same_seed_reports_are_byte_identical(self, tmp_path, capsys):
        args = ["verify", "--scan", "main", "--m", "2", "--field", "sin:w=2.5",
                "--grid", "-1:1:201", "--pairs", "120", "--seed", "9"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_negative_grid_bound_in_separate_token(self, capsys):
        # a leading dash in the value must not be mistaken for a flag
        code = main(["verify", "--scan", "lemma1", "--field", "sin:w=2",
                     "--grid", "-1:1:161", "--pairs", "50", "--seed", "0"])
        assert code == 0

    def test_bad_grid_exits_two(self, capsys):
        code = main(["verify", "--scan", "lemma1", "--field", "sin:w=2",
                     "--grid", "oops"])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    def test_large_feasible_request_exits_zero(self, capsys):
        # about 22% of uniform-in-box proposals were kept here, and a fixed
        # cap of 1M proposals stopped at 219k of the 300k pairs
        code = main(["verify", "--scan", "main", "--m", "1", "--field", "sin:w=2,1.5,1",
                     "--grid", "-1:1:21", "--dim", "3", "--pairs", "300000"])
        assert code == 0
        assert "pairs=300000 violations=0" in capsys.readouterr().out

    def test_infeasible_scan_exits_three(self, capsys):
        code = main(["verify", "--scan", "lemma1", "--field", "sin:w=2",
                     "--grid", "-1:1:161", "--min-sep", "3.0", "--max-sep", "4.0",
                     "--pairs", "10"])
        assert code == 3
        assert "infeasible" in capsys.readouterr().err

    def test_large_infeasible_scan_exits_three_before_drawing(self, capsys):
        code = main(["verify", "--scan", "lemma1", "--field", "sin:w=2",
                     "--grid", "-1:1:161", "--min-sep", "3.0", "--max-sep", "4.0",
                     "--pairs", "300000"])
        assert code == 3
        assert "no separation in [3.0, 4.0] fits" in capsys.readouterr().err

    def test_hole_domain(self, capsys):
        code = main(["verify", "--scan", "main", "--m", "1",
                     "--field", "poly:x0*x1", "--dim", "2", "--grid", "-1:1:81",
                     "--pairs", "60", "--seed", "6",
                     "--domain", "hole=-0.2,-0.2:0.2,0.2"])
        assert code == 0

    def test_explicit_delta(self, tmp_path, capsys):
        out = tmp_path / "scan.json"
        code = main(["verify", "--scan", "main", "--m", "1", "--field", "sin:w=2",
                     "--grid", "-1:1:161", "--pairs", "80", "--seed", "3",
                     "--delta", "0.5", "--out", str(out)])
        assert code == 0
        params = json.loads(out.read_text())["params"]
        spacing = GridSpec.cube(-1.0, 1.0, 161, 1).spacing[0]
        assert params["radii_master"] == list(ladder_config((0.5,), spacing).radii)
        assert params["deltas"] == [0.5]

    def test_delta_with_node_discard_exits_two(self, capsys):
        code = main(["verify", "--scan", "node-discard", "--m", "2", "--field", "sin:w=2",
                     "--grid", "-1:1:161", "--pairs", "40", "--delta", "0.5"])
        assert code == 2
        assert "--delta" in capsys.readouterr().err

    def test_boundary_without_delta_exits_two(self, capsys):
        code = main(["verify", "--scan", "main", "--field", "sin:w=2",
                     "--grid", "-1:1:161", "--pairs", "40", "--boundary", "clip"])
        assert code == 2
        assert "--boundary" in capsys.readouterr().err

    def test_smoothness_outside_hatl_exits_two(self, capsys):
        code = main(["verify", "--scan", "main", "--m", "2", "--s", "0.5",
                     "--field", "sin:w=2", "--grid", "-1:1:161", "--pairs", "40"])
        assert code == 2
        assert "--s" in capsys.readouterr().err

    def test_lemma1_with_higher_order_exits_two(self, capsys):
        code = main(["verify", "--scan", "lemma1", "--m", "3", "--field", "sin:w=2",
                     "--grid", "-1:1:161", "--pairs", "40"])
        assert code == 2
        assert "lemma1" in capsys.readouterr().err

    @pytest.mark.parametrize("scan, extra", [("node-discard", []),
                                             ("hatl", ["--s", "1.5"]),
                                             ("hatl", ["--s", "1.5", "--delta", "0.45"])])
    def test_all_node_scans_write_the_library_report(self, scan, extra, tmp_path, capsys):
        out = tmp_path / "scan.json"
        code = main(["verify", "--scan", scan, "--m", "2", "--field", "sin:w=2",
                     "--grid", "-1:1:161", "--pairs", "200", "--seed", "4", *extra,
                     "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        jsonschema.validate(data, json.loads(SCHEMA_FILE.read_text()))
        f, grid = parse_field("sin:w=2"), GridSpec.cube(-1.0, 1.0, 161, 1)
        sampler = PairSampler(Domain(grid), 200, 4, 0.05, 0.4)
        if scan == "node-discard":
            report = node_discard_check(f, 2, grid, sampler)
        else:
            config = ladder_config((0.45,), grid.spacing[0]) if "--delta" in extra else None
            report = hatl_scan(f, 2, 1.5, all_node_coefficient(f, 2, grid, sampler, config),
                               sampler)
        assert data == json.loads(json.dumps(report.to_dict()))

    def test_grid_axes_set_the_dimension_without_dim(self, tmp_path, capsys):
        out = tmp_path / "scan.json"
        code = main(["verify", "--scan", "main", "--field", "gauss:a=1",
                     "--grid", "-1:1:41;-1:1:31", "--pairs", "100", "--out", str(out)])
        assert code == 0
        params = json.loads(out.read_text())["params"]
        assert (params["dim"], params["grid"]["points"]) == (2, [41, 31])

    def test_max_sep_below_twice_the_spacing_exits_two(self, capsys):
        code = main(["verify", "--field", "sin:w=2", "--grid", "-1:1:11", "--max-sep", "0.3"])
        assert code == 2
        assert "below twice the grid spacing" in capsys.readouterr().err


class TestConfigFile:
    def test_file_supplies_defaults_and_flags_win(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"pairs": 500, "seed": 11, "field": "gauss:a=2"}))
        code = main(["verify", "--scan", "lemma1", "--config", str(cfg),
                     "--grid", "-1:1:161", "--pairs", "80", "--dump-config"])
        assert code == 0
        dump = capsys.readouterr().out
        resolved = json.loads(dump[:dump.index("[lemma1]")])
        assert resolved["pairs"] == 80
        assert resolved["seed"] == 11
        assert resolved["field"] == "gauss:a=2"

    def test_unknown_key_is_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"pears": 3}))
        assert main(["verify", "--scan", "lemma1", "--config", str(cfg)]) == 2

    def test_missing_file_exits_two(self, capsys):
        assert main(["verify", "--scan", "lemma1",
                     "--config", "/nonexistent/cfg.json"]) == 2

    def test_a_file_that_holds_no_object_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps([1]))
        assert main(["verify", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            "configuration error: the config file must hold a JSON object\n")

    @pytest.mark.parametrize("command, cfg, key", [
        # each key is an option of another command only
        ("geometry --out {out}", {"format": "csv"}, "format"),
        ("identities --draws 5", {"pairs": 10, "field": "sin:w=2"}, "field"),
        ("verify --scan lemma1", {"radius": 2.0}, "radius"),
        ("mollify", {"scan": "main"}, "scan"),
        ("triebel", {"draws": 5}, "draws"),
    ])
    def test_key_of_another_command_exits_two(self, command, cfg, key, tmp_path, capsys,
                                              monkeypatch):
        from sobolev_pointwise import cli

        def work(cfg):
            raise AssertionError("the command ran with a foreign config key")

        for name in cli._COMMANDS:
            monkeypatch.setitem(cli._COMMANDS, name, work)
        path, out = tmp_path / "cfg.json", tmp_path / "report"
        path.write_text(json.dumps(cfg))
        argv = command.format(out=out).split() + ["--config", str(path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: unknown config keys") and key in err
        assert not out.exists()

    @pytest.mark.parametrize("cfg", [
        {"format": "xml"}, {"scan": "lemma2"}, {"pairs": "many"}, {"pairs": 80.5},
        {"seed": True}, {"slack": [0.1]}, {"boundary": "wrap"}])
    def test_value_outside_the_flag_type_or_choices_exits_two(self, cfg, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["verify", "--pairs", "10", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith(f"configuration error: config key {next(iter(cfg))!r}")

    def test_switch_needs_a_json_boolean(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"corrupt_binomial": "false"}))
        assert main(["identities", "--draws", "5", "--config", str(path)]) == 2
        path.write_text(json.dumps({"corrupt_binomial": True}))
        assert main(["identities", "--draws", "5", "--config", str(path)]) == 1

    def test_values_go_through_the_flag_type(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"pairs": "80", "slack": "0", "m": 2, "s": None}))
        code = main(["triebel", "--field", "sin:w=2", "--grid", "-1:1:161",
                     "--config", str(path), "--dump-config"])
        assert code == 0
        dump = capsys.readouterr().out
        resolved = json.loads(dump[:dump.index("[triebel]")])
        assert (resolved["pairs"], resolved["slack"], resolved["m"]) == (80, 0.0, 2)
        assert resolved["s"] is None

    def test_dump_config_lists_only_the_command_options(self, capsys):
        assert main(["identities", "--draws", "5", "--dump-config"]) == 0
        dump = capsys.readouterr().out
        resolved = json.loads(dump[:dump.index("[identities]")])
        assert resolved == {"corrupt_binomial": False, "draws": 5, "out": None, "seed": 0}

    def test_dumped_config_reads_back(self, tmp_path, capsys):
        args = ["verify", "--scan", "main", "--m", "2", "--field", "gauss:a=1.5",
                "--grid", "-1:1:161", "--pairs", "60", "--seed", "4"]
        assert main(args + ["--dump-config"]) == 0
        dump = capsys.readouterr().out
        path = tmp_path / "cfg.json"
        path.write_text(dump[:dump.index("[main]")])
        assert main(["verify", "--config", str(path), "--dump-config"]) == 0
        assert capsys.readouterr().out == dump

    def test_removed_workers_key_is_unknown(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"workers": 2}))
        assert main(["verify", "--scan", "lemma1", "--config", str(cfg)]) == 2
        assert "workers" in capsys.readouterr().err


# Each is a usage error: exit 2 with one line on stderr, never a traceback
# (exit 1 means a check failed).
USAGE_ERRORS = [
    "verify --scan main --m 30",
    "mollify --m 30",
    "triebel --m 30",
    "verify --scan main --m 9 --field pow:alpha=1.5 --grid 0.2:1:101",
    "verify --seed -1",
    "identities --seed -1",
    # a NaN or infinite slack passes the zero-coefficient control, whose
    # ratios are all inf
    "triebel --g zero --pairs 10 --slack nan",
    "triebel --g zero --pairs 10 --slack inf",
    "triebel --g zero --pairs 10 --slack -0.5",
    # no draws would print PASS having checked nothing
    "identities --draws 0",
    "identities --draws -3",
    # a non-finite bound, delta or exponent fails no comparison of its check
    "verify --grid -1:nan:41 --pairs 100",
    "verify --domain hole=nan:0.2 --pairs 100",
    "verify --scan main --delta nan",
    "verify --scan main --delta inf",
    "triebel --s inf --pairs 100",
    # a non-finite field parameter is refused before the field is sampled
    "verify --field sin:w=inf --pairs 100",
    "verify --field gauss:a=inf --pairs 100",
    "verify --field pow:alpha=nan --grid 0.2:1:101 --pairs 100",
    # a field needs at least one axis
    "verify --field gauss:a=1 --dim 0",
    "verify --field pow:alpha=1.5 --grid 0.2:1:101 --dim 0",
]

# each non-finite field parameter above, and the name its error line gives it
NONFINITE_FIELDS = [("sin:w=inf", "frequencies w"), ("sin:w=2,nan --dim 2", "frequencies w"),
                    ("gauss:a=inf", "width a"), ("gauss:a=nan", "width a"),
                    ("pow:alpha=nan", "alpha"), ("pow:alpha=inf", "alpha")]


class TestUsageErrors:
    @pytest.mark.parametrize("command", USAGE_ERRORS)
    def test_exits_two_with_one_line(self, command, capsys):
        assert main(command.split()) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("configuration error: ")

    @pytest.mark.parametrize("field, name", NONFINITE_FIELDS)
    def test_nonfinite_field_parameter_is_named_without_a_warning(self, field, name, capsys):
        command = f"verify --field {field} --grid 0.2:1:101 --pairs 100"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(command.split()) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("configuration error: ") and name in err

    @pytest.mark.parametrize("command", [
        "verify --slack nan",
        "verify --scan main --m 30",
        "verify --scan main --m 0",
        "mollify --slack nan",
        "mollify --m 30",
        "triebel --slack inf",
        "triebel --m 30",
    ])
    def test_checked_before_any_work(self, command, capsys, monkeypatch):
        from sobolev_pointwise import cli

        def work(*args, **kwargs):
            raise AssertionError("work started before the options were checked")

        for name in ("sample", "young_check", "all_node_coefficient", "main_inequality_scan",
                     "node_discard_check", "hatl_scan", "mollified_scan", "triebel_scan"):
            monkeypatch.setattr(cli, name, work)
        assert main(command.split()) == 2
        captured = capsys.readouterr()
        assert "[young]" not in captured.out
        assert captured.err.startswith("configuration error: ")

    @pytest.mark.parametrize("command, message", [
        ("verify --scan hatl --m 2 --s 3", "the exponent must satisfy 0 < s <= order"),
        ("verify --scan hatl --m 2 --s 0", "the exponent must satisfy 0 < s <= order"),
        ("triebel --m 2 --s -1", "the exponent s must be a finite number > 0"),
        ("triebel --m 2 --s nan", "the exponent s must be a finite number > 0"),
        ("triebel --m 2 --s inf", "the exponent s must be a finite number > 0"),
    ])
    def test_exponent_checked_before_the_ladder(self, command, message, capsys, monkeypatch):
        from sobolev_pointwise import cli

        def ladder(*args, **kwargs):
            raise AssertionError("the ladder was built before the exponent was checked")

        monkeypatch.setattr(cli, "all_node_coefficient", ladder)
        assert main(command.split()) == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"

    @pytest.mark.parametrize("argv, message", [
        (["verify", "--grid=-1:x:11"], "cannot parse grid axis '-1:x:11'"),
        (["verify", "--field", "gauss:a=1", "--grid", "-1:1:11;-1:1:11", "--dim", "3"],
         "grid has 2 axes but dimension 3 was requested"),
        (["verify", "--domain", "hole=1,2"], "hole domain must be hole=l0,l1,..:h0,h1,.."),
        (["verify", "--domain", "ring"], "unknown domain spec 'ring'"),
        (["mollify", "--eps", "a"], "cannot parse the eps list 'a'"),
        (["verify", "--delta", "0.2", "--max-sep", "0.4"],
         "the config's top delta must cover the largest pair separation"),
    ])
    def test_unreadable_or_mismatched_input_exits_two_naming_it(self, argv, message, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("configuration error: ") and message in err

    @pytest.mark.parametrize("command", [
        "geometry --dim 0",
        "geometry --dim -1",
        "geometry --radius 0",
        "geometry --distance -1",
        "geometry --radius nan",
        "geometry --radius inf",
        "mollify --p 0",
        "mollify --p -1",
        "mollify --p nan",
        "mollify --eps nan",
        "mollify --eps inf",
        "verify --max-sep inf",
        "verify --dim 0",
    ])
    def test_bad_values_exit_two_before_any_output(self, command, capsys):
        assert main(command.split()) == 2
        captured = capsys.readouterr()
        assert len(captured.err.strip().splitlines()) == 1
        assert captured.err.startswith("configuration error: ")
        assert "[young]" not in captured.out and "[geometry]" not in captured.out

    def test_zero_slack_is_allowed(self, capsys):
        code = main(["triebel", "--field", "sin:w=2", "--grid", "-1:1:161",
                     "--m", "2", "--pairs", "80", "--seed", "2", "--slack", "0"])
        assert code == 0

    def test_negative_zero_slack_reports_as_zero(self, tmp_path, capsys):
        reports = {}
        for slack in ("0", "-0"):
            reports[slack] = tmp_path / f"slack{slack}.json"
            assert main(["verify", "--slack", slack, "--pairs", "50",
                         "--out", str(reports[slack])]) == 0
        assert reports["-0"].read_bytes() == reports["0"].read_bytes()


def _reads(tree: ast.Module, name: str) -> set[str]:
    """Keys that function `name` reads as cfg["<key>"], in its own body or
    in the module's functions that it calls, at any depth."""
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    keys, seen, todo = set(), set(), [name]
    while todo:
        fn = todo.pop()
        if fn in seen or fn not in functions:
            continue
        seen.add(fn)
        for node in ast.walk(functions[fn]):
            if (isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == "cfg"
                    and isinstance(node.slice, ast.Constant)):
                keys.add(node.slice.value)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                todo.append(node.func.id)
    return keys


def _dead_knobs(options: dict, tree: ast.Module) -> list[str]:
    """Per command, the options it declares that its `_cmd_<command>` never
    reads, and the keys it reads that it does not declare."""
    out = []
    for command, declared in sorted(options.items()):
        read = _reads(tree, f"_cmd_{command}")
        out += [f"{command}: unread --{key}" for key in sorted(declared - read)]
        out += [f"{command}: undeclared {key}" for key in sorted(read - declared)]
    return out


class TestNoDeadKnobs:
    def test_every_option_is_read_by_its_own_command(self):
        _, commands = _build_parser()
        options = {name: set(_own_options(p)) for name, p in commands.items()}
        assert set(options) == {"identities", "verify", "geometry", "mollify", "triebel"}
        assert _dead_knobs(options, ast.parse(CLI_SOURCE.read_text())) == []

    def test_guard_sees_dead_knobs(self):
        tree = ast.parse(
            "def _cmd_a(cfg):\n"
            '    return helper(cfg) + cfg["seed"]\n'
            "def helper(cfg):\n"
            '    return cfg["pairs"] + cfg["draws"]\n'
            "def _cmd_b(cfg, resolved):\n"
            '    return resolved["seed"]\n')
        options = {"a": {"seed", "pairs", "workers"}, "b": {"seed"}}
        assert _dead_knobs(options, tree) == ["a: unread --workers", "a: undeclared draws",
                                              "b: unread --seed"]


class TestFormatFlag:
    @pytest.mark.parametrize("command", ["geometry", "identities --draws 5", "mollify"])
    def test_commands_writing_json_only_refuse_it(self, command, tmp_path, capsys):
        out = tmp_path / "report.csv"
        with pytest.raises(SystemExit) as exc:
            main(command.split() + ["--format", "csv", "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    def test_triebel_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "triebel.csv"
        assert main(["triebel", "--field", "sin:w=2", "--grid", "-1:1:161", "--m", "2",
                     "--pairs", "80", "--seed", "2", "--out", str(out), "--format", "csv"]) == 0
        assert len(out.read_text().strip().splitlines()) == 81


class TestGeometry:
    def test_default_table(self, capsys):
        assert main(["geometry"]) == 0
        out = capsys.readouterr().out
        assert out.count("[geometry]") == 3

    def test_report_values(self, tmp_path, capsys):
        out = tmp_path / "geo.json"
        assert main(["geometry", "--dim", "3", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["rows"][0]["segment_ratio_constant"] == pytest.approx(3.2)


class TestMollify:
    def test_short_ladder(self, capsys):
        code = main(["mollify", "--field", "sin:w=3", "--grid", "-1:1:161",
                     "--m", "1", "--pairs", "80", "--seed", "4",
                     "--eps", "0.2,0.1", "--p", "1,2,inf"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("[young]") == 6
        assert out.count("[mollified") == 2
        assert "mollify: PASS" in out

    def test_default_scales_on_a_coarse_2d_grid(self, capsys):
        # the box-side defaults 0.1 and 0.05 span fewer than 8 samples of
        # a 61-point axis; they are raised to the smallest resolved scale
        code = main(["mollify", "--field", "gauss:a=1", "--grid", "-1:1:61", "--dim", "2",
                     "--m", "1", "--pairs", "200", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("[mollified") == 2
        assert "mollify: PASS" in out

    @pytest.mark.parametrize("grid, scales", [("-1:1:201", ("0.1", "0.05")),
                                              ("-2:2:401", ("0.2", "0.1"))])
    def test_gauss_defaults_leave_out_scales_with_nothing_to_check(self, capsys, grid, scales):
        # on [-1, 1] the 0.2 kernel and the 0.4 pair separation fill the box;
        # on [-2, 2] the scan fits at 0.4, but the Young check has no support
        code = main(["mollify", "--field", "sin:w=3", "--grid", grid, "--m", "1",
                     "--profile", "gauss", "--pairs", "200", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert [line.split()[1] for line in out.splitlines() if line.startswith("[mollified")] \
            == [f"eps={e}]" for e in scales]
        assert out.count("[young]") == 3 * len(scales)
        assert "mollify: PASS" in out

    def test_requested_scale_without_young_support_is_infeasible(self, capsys):
        # the scan fits at pairs 0.05 apart, but twice the 0.6 kernel
        # half-width from each wall leaves no node to check Young's inequality on
        code = main(["mollify", "--field", "sin:w=3", "--grid", "-1:1:201", "--m", "1",
                     "--profile", "gauss", "--eps", "0.2", "--min-sep", "0.02",
                     "--max-sep", "0.05", "--pairs", "200"])
        assert code == 3
        captured = capsys.readouterr()
        assert "[young]" not in captured.out
        assert "infeasible" in captured.err


class TestTriebel:
    def test_auto_coefficient_passes(self, capsys):
        code = main(["triebel", "--field", "sin:w=2", "--grid", "-1:1:161",
                     "--m", "2", "--pairs", "80", "--seed", "2"])
        assert code == 0

    def test_zero_coefficient_fails(self, capsys):
        code = main(["triebel", "--field", "sin:w=2", "--grid", "-1:1:161",
                     "--m", "2", "--pairs", "80", "--seed", "2", "--g", "zero"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_every_step_longer_than_one_exits_three(self, capsys):
        code = main(["triebel", "--field", "sin:w=2", "--grid", "-2:2:81", "--m", "1",
                     "--min-sep", "1.2", "--max-sep", "1.5", "--pairs", "50"])
        assert code == 3
        assert "step longer than one" in capsys.readouterr().err


class TestModuleEntry:
    def test_python_dash_m_invocation(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "sobolev_pointwise", "geometry", "--dim", "1"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "[geometry] dim=1" in proc.stdout
