import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from test_sign_rules import degenerate_case

import arrdepth
from arrdepth import cli
from arrdepth.cli import cross_check, run
from arrdepth.depth import deepest_point
from arrdepth.geometry import dump_json, frac_str, generate_instance, triangle


@pytest.fixture
def tri_file(tmp_path):
    path = tmp_path / "triangle.json"
    path.write_text(dump_json(triangle()))
    return str(path)


def test_depth_triangle_interior(tri_file):
    code, rep = run(["depth", "--measure", "rd", "--query", "1/4,1/4", tri_file])
    assert code == 0
    assert rep["outputs"]["value"] == "1"
    assert rep["verification"]["witness_reproduces"] is True


def test_depth_measures(tri_file):
    for measure, q, expected in [("rd", "0,0", "2"), ("rd-open", "0,0", "0"), ("trd", "0,0", "1")]:
        code, rep = run(["depth", "--measure", measure, "--query", q, tri_file])
        assert code == 0 and rep["outputs"]["value"] == expected


def test_deepest(tmp_path):
    path = tmp_path / "seven.json"
    path.write_text(dump_json(generate_instance(1, 2, 7, "generic")))
    code, rep = run(["deepest", str(path)])
    assert code == 0
    assert int(rep["outputs"]["value"]) >= 3  # floor(7/3)+1


def test_htvd_and_budget(tri_file, tmp_path):
    code, rep = run(["htvd", "--query", "0,0", tri_file])
    assert code == 0 and rep["outputs"]["value"] == 2
    code, rep = run(["htvd", "--query", "0,0", "--exact-threshold", "2", tri_file])
    assert code == 3 and rep["outputs"]["bound"] is True


def test_hed_and_verify(tri_file, tmp_path):
    code, rep = run(["hed", "--query", "1/4,1/4", tri_file])
    assert code == 0 and rep["outputs"]["value"] == 1
    cert = {"k": 1, "groups": rep["outputs"]["groups"], "query": ["1/4", "1/4"]}
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(cert))
    code, rep = run(["hed-verify", "--cert", str(cert_path), tri_file])
    assert code == 0 and rep["outputs"]["verified"] is True
    bad = {"k": 1, "groups": cert["groups"], "query": ["9", "9"]}
    cert_path.write_text(json.dumps(bad))
    code, rep = run(["hed-verify", "--cert", str(cert_path), tri_file])
    assert code == 2 and rep["outputs"]["verified"] is False


def _planar_hed_cases():
    """(profile, arrangement, queries) at d = 2: seeded generic and weighted instances at their deepest point
    and elsewhere, and a degenerate one at its concurrency point, a vertex and on a line."""
    for seed, profile in ((21, "generic"), (22, "weighted")):
        arr = generate_instance(seed, 2, 10, profile)
        yield profile, arr, [deepest_point(arr)[0], ("1/3", "-1/2")]
    arr, queries = degenerate_case(5, 2, 9)
    yield "degenerate", arr, queries


def test_planar_hed_reports(tmp_path, capsys):
    """`arrdepth hed` at d = 2: exit 0, a certificate that verifies, the same bytes twice, and hed-verify accepts it."""
    depths = []
    for profile, arr, queries in _planar_hed_cases():
        path = tmp_path / f"{profile}.json"
        path.write_text(dump_json(arr))
        for q in queries:
            query = ",".join(frac_str(Fraction(c)) for c in q)
            argv = ["hed", "--query", query, str(path)]
            outputs = []
            for _ in range(2):
                code, rep = run(argv)
                outputs.append(capsys.readouterr().out)
                assert code == 0, (profile, query)
            assert outputs[0] == outputs[1], (profile, query)
            value = rep["outputs"]["value"]
            depths.append(value)
            if not value:
                assert "groups" not in rep["outputs"]
                continue
            assert rep["verification"]["certificate_verifies"] is True
            cert_path = tmp_path / "cert.json"
            cert = {"k": value, "groups": rep["outputs"]["groups"], "query": query.split(",")}
            cert_path.write_text(json.dumps(cert))
            code, rep = run(["hed-verify", "--cert", str(cert_path), str(path)])
            capsys.readouterr()
            assert code == 0 and rep["outputs"] == {"verified": True, "k": value}
    assert max(depths) >= 2 and depths.count(0) < len(depths) - 3, depths


def test_tverberg_cli(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(dump_json(generate_instance(2, 2, 4, "generic")))
    code, rep = run(["tverberg", "--r", "2", "--seed", "1", str(path)])
    assert code == 0
    assert rep["outputs"]["verified"] is True
    assert len(rep["outputs"]["parts"]) == 2


def test_tverberg_cli_no_partition_exit_2(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(dump_json(generate_instance(33, 2, 4, "generic")))
    code, rep = run(["tverberg", "--r", "4", str(path)])
    assert code == 2
    assert rep["outputs"] == {"parts": None, "q": None, "verified": False}


def test_depthmap_svg(tri_file, tmp_path):
    out = tmp_path / "map.svg"
    code, rep = run(["depthmap", "--measure", "rd", "--out", str(out), tri_file])
    assert code == 0
    assert rep["verification"]["euler_ok"] is True
    data = out.read_text()
    assert data.startswith("<svg") and data.count("<polygon") == 7


def test_depthmap_process_skips_unused_modules(tmp_path):
    # a fresh interpreter per command: this test process has imported every module already.
    # -S keeps site-packages (and what their .pth files import) out of the interpreter.
    path = tmp_path / "eleven.json"
    path.write_text(dump_json(generate_instance(3, 2, 11, "generic")))
    seven = tmp_path / "seven.json"
    seven.write_text(dump_json(generate_instance(4, 2, 7, "generic")))
    commands = {
        "depthmap": ["depthmap", "--deepest", "--out", str(tmp_path / "map.svg"), str(path)],
        "depth": ["depth", "--measure", "rd-open", "--query", "1/3,-2", str(path)],
        "deepest": ["deepest", str(path)],
        "transversal": ["transversal", str(seven), str(seven)],
    }
    src = os.path.dirname(os.path.dirname(os.path.abspath(arrdepth.__file__)))
    loaded = {}
    for name, argv in commands.items():
        script = (
            "import json, sys\n"
            "from arrdepth import cli\n"
            f"code, _ = cli.run({argv!r})\n"
            "print(json.dumps([code, sorted(sys.modules)]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-S", "-c", script],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        code, modules = json.loads(proc.stdout.strip().splitlines()[-1])
        assert code == 0, name
        loaded[name] = set(modules)
        # records are built without generated code, so nothing pulls these in
        assert not {"dataclasses", "inspect", "typing"} & loaded[name], name
    assert {"arrdepth.planar", "arrdepth.depth"} <= loaded["depthmap"]
    unused = {"arrdepth.axioms", "arrdepth.enclosing", "arrdepth.tverberg", "arrdepth.transversal", "arrdepth.linprog"}
    assert not unused & loaded["depthmap"]
    assert "arrdepth.transversal" in loaded["transversal"]


def test_transversal_cli(tmp_path):
    p1 = tmp_path / "a1.json"
    p2 = tmp_path / "a2.json"
    from arrdepth.geometry import arrangement

    p1.write_text(dump_json(arrangement(2, [((1, 0), 1), ((1, 0), -1)])))
    p2.write_text(dump_json(arrangement(2, [((0, 1), 2), ((1, 1), 3)])))
    code, rep = run(["transversal", str(p1), str(p2)])
    assert code == 0
    assert rep["outputs"]["status"] == "exact"
    assert rep["verification"]["ray_bounds_hold"] is True


def test_oracle_cli():
    code, rep = run(["oracle", "--trials", "6", "--seed", "3", "--d", "2", "--n", "6"])
    assert code == 0
    assert rep["outputs"]["agreements"] == "6/6"
    assert rep["outputs"]["cross_check_failures"] == []


def test_oracle_cli_reports_failed_cross_check(monkeypatch):
    import arrdepth.cli as cli

    failing = {"checks": {"hed_le_rd": False, "open_le_rd": True}, "passed": False}
    monkeypatch.setattr(cli, "cross_check", lambda arr, q: failing)
    code, rep = run(["oracle", "--trials", "2", "--seed", "3", "--d", "2", "--n", "6"])
    assert code == 2
    failures = rep["outputs"]["cross_check_failures"]
    assert [(f["trial"], f["seed"], f["failed"]) for f in failures] == [(0, 3, ["hed_le_rd"]), (1, 4, ["hed_le_rd"])]


def test_gen_deterministic(tmp_path):
    p1 = tmp_path / "g1.json"
    p2 = tmp_path / "g2.json"
    run(["gen", "--seed", "5", "--d", "2", "--n", "6", "--out", str(p1)])
    run(["gen", "--seed", "5", "--d", "2", "--n", "6", "--out", str(p2)])
    assert p1.read_bytes() == p2.read_bytes()


def test_axioms_cli(tri_file):
    code, rep = run(["axioms", "--kind", "rd", "--query", "1/4,1/4", tri_file])
    assert code == 0
    assert rep["outputs"]["all_passed"] is True


def test_usage_error_exit_1():
    code, rep = run(["depth", "--no-such-flag", "x"])
    assert code == 1 and rep is None


# Invocations whose parse must not depend on how many subcommands the parser holds.
PARSE_CASES = [
    [], ["--help"], ["-h"], ["--timing"], ["bogus"], ["--timing", "bogus", "x"], ["-1", "depth"], ["--", "depth"],
    ["--tim", "depth", "--query", "0,0", "f"], ["--timing", "--timing", "htvd", "--query", "1", "f"],
    ["depth", "--query", "0,0", "f"], ["depth", "--measure", "trd", "--query", "-1,2", "f", "--out", "o"],
    ["depth", "--measure", "bad", "--query", "0,0", "f"], ["depth", "f"], ["depth", "--no-such-flag", "x"],
    ["depth", "--query", "0,0", "f", "extra"], ["deepest", "f", "--timing"],
    ["htvd", "--query", "0", "--exact-threshold", "x", "f"], ["hed", "--query", "0,0", "--strict", "f"],
    ["hed-verify", "f"], ["tverberg", "--r", "2", "f"], ["tverberg", "--r", "2"], ["depthmap", "--deepest", "f"],
    ["depthmap", "--out", "o.svg", "--measure", "rd-open", "f"], ["transversal", "a"],
    ["oracle", "--trials", "3", "--d", "2"], ["gen", "--seed", "1", "--d", "2"],
    ["gen", "--seed", "1", "--d", "2", "--n", "5"], ["axioms", "--kind", "hed", "--query", "0,0", "f"],
    ["axioms", "--kind", "xx", "--query", "0,0", "f"],
] + [[name, "--help"] for name in cli._COMMANDS] + [[name] for name in cli._COMMANDS]


def _parse_outcome(parser, argv, capsys):
    try:
        result = ("parsed", sorted(vars(parser.parse_args(argv)).items()))
    except cli.UsageError as exc:
        result = ("usage error", str(exc))
    except SystemExit as exc:
        result = ("exit", exc.code)
    captured = capsys.readouterr()
    return result, captured.out, captured.err


def test_one_subcommand_parser_parses_as_the_full_parser(capsys):
    for argv in PARSE_CASES:
        full = _parse_outcome(cli.build_parser(), argv, capsys)
        assert _parse_outcome(cli._parser_for(argv), argv, capsys) == full, argv
    (subcommands,) = [a for a in cli._parser_for(["gen"])._actions if a.dest == "command"]
    assert list(subcommands.choices) == ["gen"]  # a process builds the one parser it runs
    (subcommands,) = [a for a in cli._parser_for(["--help"])._actions if a.dest == "command"]
    assert list(subcommands.choices) == list(cli._COMMANDS)


def test_usage_errors_keep_their_text_and_exit_code(monkeypatch, capsys):
    failing = [[], ["bogus"], ["--timing"], ["depth", "f"], ["hed", "--query", "0,0"], ["gen", "--seed", "x"]]
    for argv in failing:
        assert run(argv) == (1, None), argv
        err = capsys.readouterr().err
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_parser_for", lambda argv: cli.build_parser())
            assert run(argv) == (1, None)
        assert capsys.readouterr().err == err and err.startswith("error: "), argv
    with pytest.raises(SystemExit) as exc:
        run(["--help"])
    assert exc.value.code == 0 and "depthmap" in capsys.readouterr().out


def test_query_with_a_leading_minus_parses_as_one_token(tmp_path, capsys):
    """`--query -1/2,3` reports exactly what `--query=-1/2,3` does, where argparse alone reads an option."""
    path = tmp_path / "seven.json"
    path.write_text(dump_json(generate_instance(1, 2, 7, "generic")))
    for command in (["depth", "--measure", "rd-open"], ["htvd"], ["axioms", "--kind", "rd", "--trials", "2"]):
        for q in ("-1/2,3", "-.5,-2", "-3,1/7"):
            assert run(command + [f"--query={q}", str(path)])[0] == 0
            joined = capsys.readouterr()
            assert run(command + ["--query", q, str(path)])[0] == 0
            assert capsys.readouterr() == joined and joined.out, (command, q)


def test_missing_file_exit_1():
    code, rep = run(["depth", "--measure", "rd", "--query", "0,0", "/nonexistent/file.json"])
    assert code == 1


def test_bad_instance_exit_1(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"d": 2, "hyperplanes": [{"normal": ["0", "0"], "offset": "1"}]}')
    code, rep = run(["depth", "--measure", "rd", "--query", "0,0", str(path)])
    assert code == 1


def test_report_determinism(tri_file, capsys):
    run(["depth", "--measure", "rd", "--query", "1/4,1/4", tri_file])
    out1 = capsys.readouterr().out
    run(["depth", "--measure", "rd", "--query", "1/4,1/4", tri_file])
    out2 = capsys.readouterr().out
    assert out1 == out2


def test_cross_check_triangle():
    rep = cross_check(triangle(), (0, 0))
    assert rep["passed"]
    assert rep["values"]["rd"] == "2"
    assert rep["values"]["rd_open"] == "0"
    assert rep["values"]["htvd"] == 2
    assert rep["checks"]["rd_equals_dual_tukey"] is True


def test_cross_check_generic():
    arr = generate_instance(6, 2, 7, "generic")
    from arrdepth.depth import deepest_point

    pt, val, _ = deepest_point(arr)
    rep = cross_check(arr, pt)
    assert rep["passed"]
    assert int(rep["values"]["rd"]) >= 3


def test_cross_check_far_outside_all_zero():
    arr = generate_instance(6, 2, 6, "generic")
    rep = cross_check(arr, (10**7, 10**7))
    assert rep["passed"]
    assert rep["values"]["rd"] == "0"
    assert rep["values"]["rd_open"] == "0"
    assert rep["values"]["trd"] == "0"
    assert rep["values"]["htvd"] == 0
    assert rep["values"]["hed"] == 0
