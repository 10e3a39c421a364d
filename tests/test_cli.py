import json
import os
import resource
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from pbwdegen import cli
from pbwdegen.tropical import map_h, point_from_triangle
from pbwdegen.weights import (
    abelian_weight_system,
    toric_weight_system,
    zero_weight_system,
)


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_weights_check_member(tmp_path, capsys):
    path = _write(tmp_path, "zero.json", zero_weight_system(3).to_json())
    assert cli.main(["weights", "check", "--file", path]) == 0
    out = capsys.readouterr().out
    assert "member=true" in out
    assert "interior=false" in out
    assert "# manifest" in out


def test_weights_check_nonmember(tmp_path, capsys):
    bad = {"n": 3, "a": {"1,2": 0, "1,3": 5, "2,3": 0}}
    path = _write(tmp_path, "bad.json", bad)
    assert cli.main(["weights", "check", "--weights", path]) == 1
    assert "member=false" in capsys.readouterr().out


def test_malformed_input_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.main(["weights", "check", "--weights", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_missing_required_flag_exits_two(capsys):
    assert cli.main(["weights", "check"]) == 2


@pytest.mark.parametrize("argv", [
    ["weights", "canonical", "--n", "1"],
    ["weights", "random", "--n", "1"],
    ["ideal", "gen", "--n", "1", "--d", "1"],
    ["ideal", "gen", "--n", "4", "--d", "5"],
    ["ideal", "gen", "--n", "4", "--d", "0"],
    ["ideal", "gen", "--n", "4", "--d", "2,1"],
    ["rep", "psi-check", "--n", "3", "--d", "3"],
])
def test_bad_sizes_exit_two(argv, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err


@pytest.mark.parametrize("argv", [
    ["degrees", "--d", "1,2"],
    ["trop", "map"],
    ["rep", "dim", "--lam", "1,1"],
    ["rep", "fflv-check", "--lam", "1,1"],
    ["rep", "annihilator-check", "--lam", "1,1"],
    ["rep", "psi-check", "--n", "3", "--d", "1,2"],
    ["ideal", "initial", "--n", "3", "--d", "1,2", "--mu", "1,1"],
    ["ideal", "check-quadratic", "--n", "3", "--d", "1,2", "--mu", "1,1"],
])
def test_weights_outside_cone_exit_two(argv, tmp_path, capsys):
    bad = {"n": 3, "a": {"1,2": 0, "1,3": 5, "2,3": 0}}
    path = _write(tmp_path, "bad.json", bad)
    assert cli.main(argv + ["--weights", path]) == 2
    err = capsys.readouterr().err
    assert "outside the admissible cone" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["rep", "dim", "--lam", "1,1"],
    ["rep", "fflv-check", "--lam", "1,1"],
    ["rep", "psi-check", "--n", "3", "--d", "1,2"],
    ["ideal", "initial", "--n", "3", "--d", "1,2", "--mu", "1,1"],
    ["ideal", "check-quadratic", "--n", "3", "--d", "1,2", "--mu", "1,1"],
])
def test_weights_of_another_n_exit_two(argv, tmp_path, capsys):
    path = _write(tmp_path, "toric4.json", toric_weight_system(4).to_json())
    assert cli.main(argv + ["--weights", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "n=4" in captured.err and "n=3" in captured.err


@pytest.mark.parametrize("action", ["initial", "check-quadratic", "check-face-degeneration"])
@pytest.mark.parametrize("mu", ["1,-1", "-1,2"])
def test_negative_mu_exits_two(action, mu, tmp_path, capsys):
    A = _write(tmp_path, "A.json", toric_weight_system(3).to_json())
    argv = ["ideal", action, "--n", "3", "--d", "1,2", f"--mu={mu}", "--weights", A]
    if action == "check-face-degeneration":
        argv += ["--weights-b", A]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "--mu entries must be nonnegative" in err
    assert "Traceback" not in err


def test_face_degeneration_weights_b_of_another_n_exit_two(tmp_path, capsys):
    A = _write(tmp_path, "zero3.json", zero_weight_system(3).to_json())
    B = _write(tmp_path, "toric4.json", toric_weight_system(4).to_json())
    argv = ["ideal", "check-face-degeneration", "--n", "3", "--d", "1,2",
            "--mu", "1,1", "--weights", A, "--weights-b", B]
    assert cli.main(argv) == 2
    assert "n=4" in capsys.readouterr().err


@pytest.mark.parametrize("entries", [
    {"1,2": 2.7, "1,3": 0, "2,3": 0},
    {"1,2": True, "1,3": 0, "2,3": 0},
    {"1,2": 0, "1,3": 0},
    {"1,2": 0, "1,3": 0, "2,3": 0, "1,4": 0},
    [0, 0, 0],
])
def test_malformed_weight_entries_exit_two(entries, tmp_path, capsys):
    path = _write(tmp_path, "w.json", {"n": 3, "a": entries})
    assert cli.main(["weights", "check", "--weights", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bad weight system" in captured.err


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pbwdegen", "fflv", "dim", "--lam", "1,1"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "8"


def test_fflv_count(capsys):
    assert cli.main(["fflv", "count", "--lam", "1,1"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "8"


def test_ideal_gen_json_structure(capsys):
    assert cli.main(["--format", "json", "ideal", "gen", "--n", "3", "--d", "1,2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert set(data) == {"result", "manifest"}
    assert len(data["result"]) == 1
    assert data["manifest"]["params"] == {"d": [1, 2], "n": 3}


# the degree table of each system, keyed by index label in sorted order
DEGREES_GOLDEN = [
    (abelian_weight_system(3), "1,2",
     {"1": 0, "1,2": 0, "1,3": 1, "2": 1, "2,3": 1, "3": 1}),
    (toric_weight_system(4), "2",
     {"1,2": 0, "1,3": 2, "1,4": 0, "2,3": 3, "2,4": 0, "3,4": 2}),
]


@pytest.mark.parametrize("A, d, want", DEGREES_GOLDEN)
def test_degrees_golden_output(A, d, want, tmp_path, capsys):
    path = _write(tmp_path, "A.json", A.to_json())
    argv = ["degrees", "--weights", path, "--d", d]
    assert cli.main(["--format", "json"] + argv) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result == want and list(result) == list(want)
    assert all(type(v) is int for v in result.values())
    assert cli.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:-1] == [f"{k} {v}" for k, v in want.items()]
    assert lines[-1].startswith("# manifest ")


def test_ideal_initial(tmp_path, capsys):
    path = _write(tmp_path, "ab.json", abelian_weight_system(3).to_json())
    rc = cli.main(
        ["ideal", "initial", "--n", "3", "--d", "1,2", "--mu", "1,1", "--weights", path]
    )
    assert rc == 0
    assert "rank=" in capsys.readouterr().out


def test_trop_check_and_witness(tmp_path, capsys):
    good = _write(tmp_path, "pt.json", map_h(abelian_weight_system(3)).to_json())
    assert cli.main(["trop", "check", "--point", good, "--degree-bound", "3"]) == 0
    out = capsys.readouterr().out
    assert "in-cone=true" in out
    assert "no monomial found up to degree 3" in out

    bad_point = point_from_triangle(3, {(1, 2): 0, (2, 3): 0, (1, 3): 1})
    bad = _write(tmp_path, "bad.json", bad_point.to_json())
    assert cli.main(["trop", "check", "--point", bad]) == 1
    assert "[iv] i=1" in capsys.readouterr().out
    assert cli.main(["trop", "witness", "--point", bad]) == 0
    assert "X_{" in capsys.readouterr().out


def _failing_bounded_check(monkeypatch):
    calls = []

    def fail(point, d, bound):
        calls.append(bound)
        return False

    monkeypatch.setattr(cli.tropical, "in_trop_necessary_check", fail)
    return calls


@pytest.mark.parametrize("bound", ["-1", "0", "1"])
def test_trop_check_degree_bound_below_two_exits_two(bound, tmp_path, capsys, monkeypatch):
    # no component of degree below 2 holds a relation: such a bound checks
    # nothing, so it must not print a passing verdict
    calls = _failing_bounded_check(monkeypatch)
    good = _write(tmp_path, "pt.json", map_h(abelian_weight_system(3)).to_json())
    assert cli.main(["trop", "check", "--point", good, "--degree-bound", bound]) == 2
    captured = capsys.readouterr()
    assert "--degree-bound must be at least 2" in captured.err
    assert "no monomial" not in captured.out
    assert calls == []


def test_trop_check_degree_bound_two_runs_the_check(tmp_path, capsys, monkeypatch):
    calls = _failing_bounded_check(monkeypatch)
    good = _write(tmp_path, "pt.json", map_h(abelian_weight_system(3)).to_json())
    assert cli.main(["trop", "check", "--point", good, "--degree-bound", "2"]) == 1
    assert "monomial found at degree <= 2" in capsys.readouterr().out
    assert calls == [2]


@pytest.mark.parametrize("action", ["check", "witness"])
@pytest.mark.parametrize("s", [[1, 2], "1,2", 3, None])
def test_tropical_point_with_non_object_s_exits_two(action, s, tmp_path, capsys):
    path = _write(tmp_path, "pt.json", {"n": 3, "s": s})
    assert cli.main(["trop", action, "--point", path]) == 2
    err = capsys.readouterr().err
    assert "bad tropical point" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("n, argv", [
    (-3, ["check"]), (-3, ["witness"]),
    (0, ["check", "--degree-bound", "2"]), (1, ["check", "--degree-bound", "2"]),
])
def test_tropical_point_of_rank_below_two_exits_two(n, argv, tmp_path, capsys):
    # n = 0 and 1 used to pass a bounded check that checked nothing
    path = _write(tmp_path, "pt.json", {"n": n, "s": {}})
    start = time.monotonic()
    assert cli.main(["trop", argv[0], "--point", path] + argv[1:]) == 2
    assert time.monotonic() - start < 1.0
    err = capsys.readouterr().err
    assert err == f"error: bad tropical point in {path}: need n >= 2, got n={n}\n"


def test_tropical_point_counts_its_keys_before_listing_subsets(tmp_path):
    # n=26 has 2^26 - 2 subsets; listing them exhausted a 2 GB address
    # space, which the child gets as its limit here
    path = _write(tmp_path, "pt.json", {"n": 26, "s": {"1": 0}})
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    limit = 2 * 10**9
    proc = subprocess.run(
        [sys.executable, "-m", "pbwdegen", "trop", "check", "--point", path],
        capture_output=True, text=True, env=env, timeout=10,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.count("\n") == 1 and "one coordinate per" in proc.stderr


@pytest.mark.parametrize("action, flags", [
    ("dim", ["--lam", ",".join(["1"] + ["0"] * 28)]),
    ("psi-check", ["--n", "30", "--d", "1", "--relations", "[[]]"]),
])
def test_degenerate_action_at_large_n_reads_only_the_sizes_it_acts_on(action, flags, tmp_path, capsys):
    # n=30 has 2^30 - 2 Pluecker coordinates, but omega_1 and --d 1 act on
    # the 30 of size 1 only
    weights = _write(tmp_path, "toric.json", toric_weight_system(30).to_json())
    if action == "psi-check":
        flags[-1] = _write(tmp_path, "rels.json", json.loads(flags[-1]))
    start = time.monotonic()
    assert cli.main(["rep", action, *flags, "--weights", weights]) == 0
    assert time.monotonic() - start < 1.0
    assert capsys.readouterr().out.startswith("30\n" if action == "dim" else "psi=true\n")


def test_trop_check_bad_sizes_exit_two(tmp_path, capsys):
    good = _write(tmp_path, "pt.json", map_h(abelian_weight_system(3)).to_json())
    argv = ["trop", "check", "--point", good, "--degree-bound", "2", "--d", "0"]
    assert cli.main(argv) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("d, code", [("0", 2), ("x", 2), ("1,3", 2), ("2,1", 2), ("1,2", 0)])
def test_trop_check_parses_d_without_degree_bound(d, code, tmp_path, capsys):
    good = _write(tmp_path, "pt.json", map_h(abelian_weight_system(3)).to_json())
    assert cli.main(["trop", "check", "--point", good, "--d", d]) == code
    assert ("error:" in capsys.readouterr().err) == (code == 2)


def test_trop_check_parses_d_outside_the_cone(tmp_path, capsys):
    bad = point_from_triangle(3, {(1, 2): 0, (2, 3): 0, (1, 3): 1})
    path = _write(tmp_path, "bad.json", bad.to_json())
    assert cli.main(["trop", "check", "--point", path]) == 1
    capsys.readouterr()
    assert cli.main(["trop", "check", "--point", path, "--d", "0"]) == 2


def test_tableaux_roundtrip(capsys):
    assert cli.main(["tableaux", "roundtrip", "--lam", "1,1"]) == 0
    assert "roundtrip=true" in capsys.readouterr().out


def test_rep_psi_check(capsys):
    assert cli.main(["rep", "psi-check", "--n", "3", "--d", "1,2"]) == 0
    assert "psi=true" in capsys.readouterr().out


def test_max_dim_guard(tmp_path, capsys, monkeypatch):
    path = _write(tmp_path, "ab.json", abelian_weight_system(3).to_json())
    argv = ["ideal", "initial", "--n", "3", "--d", "1,2", "--mu", "1,1", "--weights", path]
    monkeypatch.setenv("PBWDEGEN_MAX_DIM", "2")
    assert cli.main(argv) == 2
    assert "PBWDEGEN_MAX_DIM" in capsys.readouterr().err
    # the bound is inclusive: the component has 3 x 3 monomials
    monkeypatch.setenv("PBWDEGEN_MAX_DIM", "9")
    assert cli.main(argv) == 0
    monkeypatch.setenv("PBWDEGEN_MAX_DIM", "8")
    assert cli.main(argv) == 2


def test_component_guard_lists_no_monomials(tmp_path, capsys, monkeypatch):
    # C(20,3) variables in degree 7: 657,800 monomials, refused unlisted
    monkeypatch.setattr(cli.ideals, "component_monomials", _refuse)
    path = _write(tmp_path, "zero6.json", zero_weight_system(6).to_json())
    argv = ["ideal", "initial", "--n", "6", "--d", "3", "--mu", "7", "--weights", path]
    assert cli.main(argv) == 2
    assert "component dimension 657800" in capsys.readouterr().err


@pytest.mark.parametrize("bound, max_dim, code", [
    ("8", "100000", 2),  # 319,755 monomials in degrees 2 to 8
    ("6", "38745", 1),  # 38,745 in degrees 2 to 6
    ("6", "38744", 2),
])
def test_trop_check_guards_the_whole_degree_bound(bound, max_dim, code, tmp_path, capsys,
                                                  monkeypatch):
    calls = _failing_bounded_check(monkeypatch)
    monkeypatch.setenv("PBWDEGEN_MAX_DIM", max_dim)
    good = _write(tmp_path, "pt.json", map_h(toric_weight_system(4)).to_json())
    assert cli.main(["trop", "check", "--point", good, "--degree-bound", bound]) == code
    assert ("PBWDEGEN_MAX_DIM" in capsys.readouterr().err) == (code == 2)
    assert calls == ([] if code == 2 else [int(bound)])


def test_max_dim_guard_module_closure(capsys, monkeypatch):
    monkeypatch.setenv("PBWDEGEN_MAX_DIM", "3")
    assert cli.main(["rep", "dim", "--lam", "1,1"]) == 2
    assert "PBWDEGEN_MAX_DIM" in capsys.readouterr().err


def test_max_dim_guard_essential_closure(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PBWDEGEN_MAX_DIM", "3")
    path = _write(tmp_path, "toric3.json", toric_weight_system(3).to_json())
    assert cli.main(["rep", "dim", "--lam", "1,1", "--weights", path]) == 2
    assert "PBWDEGEN_MAX_DIM" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    # n=12, d=(6): 924^2 index pairs, 62 blocks each, 52,934,112 exchanges
    ["ideal", "gen", "--n", "12", "--d", "6"],
    ["rep", "psi-check", "--n", "12", "--d", "6"],
    ["ideal", "check-quadratic", "--n", "12", "--d", "6", "--mu", "1"],
    ["ideal", "check-face-degeneration", "--n", "12", "--d", "6", "--mu", "1"],
    # the n=8 full flag: 496,728 exchanges
    ["trop", "check", "--degree-bound", "2"],
])
def test_relation_generation_is_guarded(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli.ideals, "plucker_relations", _refuse)
    monkeypatch.setattr(cli.tropical, "plucker_relations", _refuse)
    monkeypatch.delenv("PBWDEGEN_MAX_DIM", raising=False)
    if argv[0] == "trop":
        argv = argv + ["--point", _write(tmp_path, "pt.json", map_h(toric_weight_system(8)).to_json())]
    elif argv[1].startswith("check"):
        path = _write(tmp_path, "zero12.json", zero_weight_system(12).to_json())
        argv = argv + ["--weights", path]
        if argv[1] == "check-face-degeneration":
            argv += ["--weights-b", path]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "Pluecker relation exchanges" in err and "PBWDEGEN_MAX_DIM=100000" in err


def test_ideal_initial_builds_only_the_relations_that_fit_mu(tmp_path, capsys, monkeypatch):
    # n=12, d=(6): of the 52,934,112 exchanges, none fits mu=(1) and all fit
    # mu=(2); the full generating set is never built
    build = cli.ideals.plucker_relations

    def fitting_only(n, d, mu=None):
        assert mu is not None, "built every relation"
        return build(n, d, mu)

    monkeypatch.setattr(cli.ideals, "plucker_relations", fitting_only)
    monkeypatch.setenv("PBWDEGEN_MAX_DIM", "500000")
    path = _write(tmp_path, "zero12.json", zero_weight_system(12).to_json())
    argv = ["ideal", "initial", "--n", "12", "--d", "6", "--weights", path]
    assert cli.main(argv + ["--mu", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "rank=0"
    # 427,350 monomials pass, the exchanges not, before any is built
    monkeypatch.setattr(cli.ideals, "plucker_relations", _refuse)
    assert cli.main(argv + ["--mu", "2"]) == 2
    assert "Pluecker relation exchanges 52934112 exceeds" in capsys.readouterr().err


def test_ideal_initial_at_n12_ends_quickly(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PBWDEGEN_MAX_DIM="1000")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    path = _write(tmp_path, "zero12.json", zero_weight_system(12).to_json())
    proc = subprocess.run(
        [sys.executable, "-m", "pbwdegen", "ideal", "initial", "--n", "12", "--d", "6",
         "--mu", "1", "--weights", path],
        capture_output=True, text=True, env=env, timeout=10,
    )
    assert proc.returncode in (0, 2), proc.stderr


def test_relation_guard_bound_is_inclusive(capsys, monkeypatch):
    argv = ["ideal", "gen", "--n", "4", "--d", "2"]  # 36 index pairs, 2 blocks each
    monkeypatch.setenv("PBWDEGEN_MAX_DIM", "72")
    assert cli.main(argv) == 0
    monkeypatch.setenv("PBWDEGEN_MAX_DIM", "71")
    assert cli.main(argv) == 2
    assert "Pluecker relation exchanges 72 exceeds" in capsys.readouterr().err


def test_annihilator_check_costs_one_module(tmp_path, capsys):
    # the exponent box of (2,1,1,2) holds 302,400 triangles; the module 6,125
    path = _write(tmp_path, "toric5.json", toric_weight_system(5).to_json())
    assert cli.main(["rep", "annihilator-check", "--lam", "2,1,1,2", "--weights", path]) == 0
    assert "annihilator-monomial=true" in capsys.readouterr().out


def test_annihilator_check_off_the_interior_exits_two(tmp_path, capsys):
    path = _write(tmp_path, "ab5.json", abelian_weight_system(5).to_json())
    assert cli.main(["rep", "annihilator-check", "--lam", "2,1,1,2", "--weights", path]) == 2
    assert "interior" in capsys.readouterr().err


@pytest.mark.parametrize("action", ["fflv-check", "annihilator-check"])
def test_module_checks_guard_the_weyl_dimension(action, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli.representations, "essential_closure", _refuse)
    monkeypatch.setenv("PBWDEGEN_MAX_DIM", "6124")  # the dimension of (2,1,1,2)
    path = _write(tmp_path, "toric5.json", toric_weight_system(5).to_json())
    assert cli.main(["rep", action, "--lam", "2,1,1,2", "--weights", path]) == 2
    assert "PBWDEGEN_MAX_DIM" in capsys.readouterr().err


def test_suite_capped(capsys):
    assert cli.main(["suite", "--n", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    passes = [l for l in lines if l.startswith("PASS")]
    assert len(passes) == 13
    assert not any("skipped" in l for l in lines)


@pytest.mark.parametrize("cap", ["0", "1", "-3", "2"])
def test_suite_cap_below_minimum_exits_two(cap, capsys):
    assert cli.main(["suite", "--n", cap]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "suite --n must be at least 3" in captured.err


def test_unknown_action_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["fflv", "frob", "--lam", "1"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_deterministic_output(capsys):
    cli.main(["--format", "json", "fflv", "patterns", "--lam", "1,0"])
    first = json.loads(capsys.readouterr().out)["result"]
    cli.main(["--format", "json", "fflv", "patterns", "--lam", "1,0"])
    second = json.loads(capsys.readouterr().out)["result"]
    assert first == second


@pytest.mark.parametrize("argv", [
    ["fflv", "count"],
    ["fflv", "patterns"],
    ["tableaux", "count"],
    ["tableaux", "roundtrip"],
])
def test_enumeration_size_guard(argv, capsys, monkeypatch):
    # the guard reads the Weyl dimension before anything is enumerated
    def refuse(lam):
        raise AssertionError("enumerated past the size guard")

    monkeypatch.setattr(cli.fflv, "enumerate_patterns", refuse)
    monkeypatch.setattr(cli.tableaux, "enumerate_ssyt", refuse)
    # the counts walk the search without building objects
    monkeypatch.setattr(cli.fflv, "_walk_patterns", refuse)
    monkeypatch.setattr(cli.tableaux, "_walk_ssyt", refuse)
    monkeypatch.setenv("PBWDEGEN_MAX_DIM", "100")
    assert cli.main(argv + ["--lam", "3,3,3,3,3"]) == 2
    assert "PBWDEGEN_MAX_DIM" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["fflv", "count"],
    ["tableaux", "count"],
    ["tableaux", "roundtrip"],
])
def test_enumeration_size_guard_bound_is_inclusive(argv, capsys, monkeypatch):
    monkeypatch.setenv("PBWDEGEN_MAX_DIM", "8")  # the dimension of (1,1)
    assert cli.main(argv + ["--lam", "1,1"]) == 0
    monkeypatch.setenv("PBWDEGEN_MAX_DIM", "7")
    assert cli.main(argv + ["--lam", "1,1"]) == 2


def _refuse(*args, **kwargs):
    raise AssertionError("built past the size guard")


@pytest.mark.parametrize("argv, builder", [
    (["weights", "canonical", "--n", "40"], "canonical_weight_systems"),
    (["weights", "canonical", "--n", "1000000000"], "canonical_weight_systems"),
    (["weights", "random", "--count", "101"], "random_cone_points"),
])
def test_weights_size_guard(argv, builder, capsys, monkeypatch):
    monkeypatch.setattr(cli.weights, builder, _refuse)
    monkeypatch.setenv("PBWDEGEN_MAX_DIM", "100")
    assert cli.main(argv) == 2
    assert "PBWDEGEN_MAX_DIM" in capsys.readouterr().err


def test_weights_random_refuses_large_n(capsys, monkeypatch):
    monkeypatch.setattr(cli.weights, "random_cone_points", _refuse)
    assert cli.main(["weights", "random", "--n", str(cli.RANDOM_MAX_N + 1), "--count", "1"]) == 2
    assert f"--n <= {cli.RANDOM_MAX_N}" in capsys.readouterr().err


def test_weights_random_n_bound_is_inclusive(capsys):
    argv = ["--format", "json", "weights", "random", "--n", str(cli.RANDOM_MAX_N), "--count", "1"]
    assert cli.main(argv) == 0
    [point] = json.loads(capsys.readouterr().out)["result"]
    assert point["n"] == cli.RANDOM_MAX_N


@pytest.mark.parametrize("argv, size", [
    (["weights", "canonical", "--n", "4"], 7),  # 2^(4-2) + 3 systems
    (["weights", "random", "--count", "5"], 5),
])
def test_weights_size_guard_bound_is_inclusive(argv, size, capsys, monkeypatch):
    monkeypatch.setenv("PBWDEGEN_MAX_DIM", str(size))
    assert cli.main(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == size + 1  # and the manifest
    monkeypatch.setenv("PBWDEGEN_MAX_DIM", str(size - 1))
    assert cli.main(argv) == 2


@pytest.mark.parametrize("relations", [
    [[{"coeff": "1"}]],  # no monomial
    [[{"monomial": [[[1], 1], [[2, 3], 1]]}]],  # no coefficient
    [5],  # an entry that is not a list of terms
    [[{"coeff": "1", "monomial": [[[3, 2], 1]]}]],  # unsorted index
    [[{"coeff": "1", "monomial": [[[1, 2, 3], 1]]}]],  # not a proper subset
    [[{"coeff": "1", "monomial": [[[2, 3], 1]]}]],  # size 2 with --d 1
    [[{"coeff": "1/0", "monomial": [[[1], 1]]}]],  # zero denominator
    [[{"coeff": 0.5, "monomial": [[[1], 1]]}]],  # float coefficient
    [[{"coeff": "1", "monomial": [[[1], 0]]}]],  # exponent 0
    [[{"coeff": "1", "monomial": [[[1], 1.5]]}]],  # non-integer exponent
    [[{"coeff": "1", "monomial": [[[1], 1]]},
      {"coeff": "-1", "monomial": [[[1], 1]]}]],  # a monomial twice
])
def test_malformed_relations_exit_two(relations, tmp_path, capsys):
    path = _write(tmp_path, "rels.json", relations)
    argv = ["rep", "psi-check", "--n", "3", "--d", "1", "--relations", path]
    assert cli.main(argv) == 2
    assert "bad relation in" in capsys.readouterr().err


def test_psi_check_reads_relations_written_by_ideal_gen(tmp_path, capsys):
    assert cli.main(["--format", "json", "ideal", "gen", "--n", "4", "--d", "1,2"]) == 0
    rels = json.loads(capsys.readouterr().out)["result"]
    path = _write(tmp_path, "rels.json", rels)
    argv = ["rep", "psi-check", "--n", "4", "--d", "1,2", "--relations", path]
    assert cli.main(argv) == 0
    assert "psi=true" in capsys.readouterr().out


@pytest.mark.parametrize("value", [0.1, True, 1.0, None, "1/0x", "1/0"])
def test_trop_check_non_rational_point_exits_two(value, tmp_path, capsys):
    data = map_h(abelian_weight_system(3)).to_json()
    data["s"]["1,2"] = value
    path = _write(tmp_path, "pt.json", data)
    assert cli.main(["trop", "check", "--point", path]) == 2
    assert "bad tropical point" in capsys.readouterr().err


def _argv(key, skip=None):
    """A command line giving every required flag of an action but `skip`."""
    argv = [part for part in key if part is not None]
    for flag in cli.ACTIONS[key][1]:
        if flag != skip:
            argv += [f"--{flag}", "3" if flag in cli.INT_FLAGS else "x"]
    return argv


def _case(key, flag):
    return pytest.param(key, flag, id=" ".join(filter(None, key)) + f" --{flag}")


@pytest.mark.parametrize("key, flag", [
    _case(key, flag) for key, (_, required, _) in cli.ACTIONS.items() for flag in required
])
def test_each_required_flag_is_checked(key, flag, capsys):
    assert cli.main(_argv(key, skip=flag)) == 2
    err = capsys.readouterr().err
    assert f"needs --{flag}" in err
    assert "Traceback" not in err


def _foreign_flags():
    """(action, flag) for every flag that only sibling actions take, such
    as ideal gen --mu, rep dim --relations and trop map --point."""
    flags = {key: set(req) | set(opt) for key, (_, req, opt) in cli.ACTIONS.items()}
    return sorted(
        {(key, f) for key in flags for other in flags if other[0] == key[0]
         for f in flags[other] - flags[key]},
        key=str,
    )


@pytest.mark.parametrize("key, flag", [_case(key, flag) for key, flag in _foreign_flags()])
def test_flag_of_a_sibling_action_exits_two(key, flag, capsys):
    argv = _argv(key) + [f"--{flag}", "3" if flag in cli.INT_FLAGS else "r.json"]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_readme_command_lines_parse():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = [
        line.split("#")[0]
        for line in readme.read_text().splitlines()
        if line.startswith("pbwdegen ")
    ]
    assert len(lines) >= 10
    for line in lines:
        args = cli.build_parser().parse_args(shlex.split(line)[1:])
        for flag in cli.ACTIONS[args.key][1]:
            assert getattr(args, flag.replace("-", "_")) is not None, (line, flag)
