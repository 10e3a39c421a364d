import hashlib
import json
import os
import random
import re
import resource
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from pbwdegen import cli
from pbwdegen.degrees import grading_vector
from pbwdegen.ideals import initial_component, plucker_relations
from pbwdegen.tropical import map_h, point_from_triangle
from pbwdegen.weights import (
    WeightSystem,
    abelian_weight_system,
    canonical_weight_systems,
    is_interior,
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


@pytest.mark.parametrize("argv, blob", [
    (["weights", "check", "--weights"], b'{"n": 2, "a": {"1,2": "\xff"}}'),  # not UTF-8
    (["weights", "check", "--weights"], b'{"n": 2, "a": {"1,2": ' + b"1" * 5001 + b"}}"),
    (["trop", "map", "--weights"], b'{"n": 2, "a": {"1,2": ' + b"1" * 5001 + b"}}"),
], ids=["check-not-utf8", "check-long-int", "map-long-int"])
def test_json_that_json_loads_refuses_exits_two(argv, blob, tmp_path, capsys):
    path = tmp_path / "w.json"
    path.write_bytes(blob)
    assert cli.main(argv + [str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "is not valid JSON" in captured.err


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_fflv_dim_too_long_to_print_exits_two(fmt, capsys):
    big = "1" + "0" * 2000
    assert cli.main(["--format", fmt, "fflv", "dim", "--lam", f"{big},{big}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "Weyl dimension cannot be printed" in captured.err


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


def _point_raised(A, key):
    """map_h(A) with s_key raised by 1, off conditions [i]-[iii]."""
    point = map_h(A).to_json()
    point["s"][key] += 1
    return point


_TORIC3 = toric_weight_system(3).to_json()
_ZERO3 = zero_weight_system(3).to_json()
_FACE = ["ideal", "check-face-degeneration", "--n", "3", "--d", "1,2", "--mu", "1,1"]


@pytest.mark.parametrize("argv, files, verdict", [
    (["ideal", "check-quadratic", "--n", "3", "--d", "1,2", "--mu", "1,2"],
     [("--weights", _TORIC3)], "quadratic=true"),
    (_FACE, [("--weights", _ZERO3), ("--weights-b", _TORIC3)], "face-degeneration=true"),
    (["trop", "witness"], [("--point", map_h(toric_weight_system(3)).to_json())],
     "no violated inequality"),
], ids=["check-quadratic", "check-face-degeneration", "trop-witness"])
def test_verdicts_exit_zero(argv, files, verdict, tmp_path, capsys):
    for flag, payload in files:
        argv = argv + [flag, _write(tmp_path, flag[2:] + ".json", payload)]
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == verdict
    assert captured.err == ""


@pytest.mark.parametrize("argv, files, max_dim, message", [
    (_FACE, [("--weights", _TORIC3), ("--weights-b", _ZERO3)], None,
     "face precondition fails"),
    (["trop", "witness"], [("--point", _point_raised(toric_weight_system(4), "2,3"))], None,
     "conditions [i]-[iii] must hold first"),
    (["ideal", "gen", "--n", "3", "--d", "1,2"], [], "abc",
     "PBWDEGEN_MAX_DIM must be an integer, got 'abc'"),
    (["rep", "dim", "--lam", "1,-1"], [], None,
     "dominant weight coefficients must be nonnegative"),
    (["ideal", "initial", "--n", "3", "--d", "1,2", "--mu", "1,1,1"], [("--weights", _TORIC3)],
     None, "--mu must have one entry per size in --d"),
    (_FACE[:-1] + ["1"], [("--weights", _ZERO3), ("--weights-b", _TORIC3)], None,
     "--mu must have one entry per size in --d"),
], ids=["face-not-nested", "trop-witness-off-i-iii", "max-dim-not-an-integer",
        "negative-lam", "mu-too-long", "mu-too-short"])
def test_refusals_exit_two_with_one_line(argv, files, max_dim, message, tmp_path, capsys,
                                         monkeypatch):
    if max_dim is not None:
        monkeypatch.setenv("PBWDEGEN_MAX_DIM", max_dim)
    for flag, payload in files:
        argv = argv + [flag, _write(tmp_path, flag[2:] + ".json", payload)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert message in captured.err and "Traceback" not in captured.err


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


IDEAL_INITIAL_GOLDEN = [
    (toric_weight_system, "4", "1,2,3", "1,1,1",
     "5d7cb9020ad9252513f452ed7411872f49953c9af138b3bdf10e3ef1b4c45a43"),
    (abelian_weight_system, "5", "2,3", "1,1",
     "2b195390fdf88e54e21d52ef0bba6532c25ea8e054060854432ce94617313c94"),
    (zero_weight_system, "4", "2", "3",
     "6b52f7d0abda8663f1cee84fdc0be1fd741d875bfe680c8b26c3282dfdaff50d"),
    (toric_weight_system, "5", "1,2,3,4", "0,2,0,1",
     "bea969f3f2bc27aecf384e80a982537e70fffb001b35dc30c7358ac948354317"),
    (abelian_weight_system, "6", "1,3,5", "1,1,1",
     "b05f93049245fdf1224c76d4a9404eb6335f5e14c9abd0cc871fd4607d9d25a4"),
]


@pytest.mark.parametrize("system, n, d, mu, want", IDEAL_INITIAL_GOLDEN, ids=[
    f"n{n}-d{d}-mu{mu}-{system.__name__.split('_')[0]}"
    for system, n, d, mu, _ in IDEAL_INITIAL_GOLDEN
])
def test_ideal_initial_golden_output(system, n, d, mu, want, tmp_path, capsys):
    # the rows, their monomials and their order, pinned by a hash of the JSON
    path = _write(tmp_path, "A.json", system(int(n)).to_json())
    argv = ["--format", "json", "ideal", "initial", "--n", n, "--d", d, "--mu", mu,
            "--weights", path]
    assert cli.main(argv) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert hashlib.sha256(json.dumps(result, sort_keys=True).encode()).hexdigest() == want


def _seeded_interior(n, seed):
    """The toric system plus a seeded nonnegative combination of the
    abelian, toric and column-independent systems: interior for any seed."""
    rng = random.Random(seed)
    c_abelian, c_toric = rng.randint(0, 2), rng.randint(0, 2)
    u = [rng.randint(0, 2) for _ in range(n)]
    A = WeightSystem.from_function(
        n, lambda i, j: (1 + c_toric) * (j - i + 1) * (n - j) + c_abelian + u[i - 1])
    assert is_interior(A)
    return A


def _result_hash(argv, capsys):
    """sha256 of the sorted JSON of the result of a --format json run."""
    assert cli.main(["--format", "json"] + argv) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    return hashlib.sha256(json.dumps(result, sort_keys=True).encode()).hexdigest()


COMBINATORICS_GOLDEN = [
    (["fflv", "patterns", "--lam", "1,1,1,1"],
     "505bc2c9233ed92a4229d25202d9155b3ba0f0b4adb9b8c6b7cd08cf53a1cf6e"),
    (["fflv", "patterns", "--lam", "2,0,1"],
     "2cd98129210dac97461829e2257d72b4c35d047d881c621bd26ead9b98602bc7"),
    (["tableaux", "roundtrip", "--lam", "1,1,1,1"],
     "b5bea41b6c623f7c09f1bf24dcae58ebab3c0cdd90ad966bc43a45b44867e12b"),
    (["trop", "map", "--weights", "seeded-n11"],
     "753f55f457526e59aecc05055d3334e9f9da3a43972b3d529751a41c751b2d40"),
]


@pytest.mark.parametrize("argv, want", COMBINATORICS_GOLDEN,
                         ids=[" ".join(argv[:2] + argv[3:]) for argv, _ in COMBINATORICS_GOLDEN])
def test_combinatorics_golden_output(argv, want, tmp_path, capsys):
    # patterns in their order, the round trip's verdict and the tropical
    # point of a seeded interior n=11 system, pinned by a hash of the JSON
    if argv[-1] == "seeded-n11":
        argv = argv[:-1] + [_write(tmp_path, "A.json", _seeded_interior(11, 11).to_json())]
    assert _result_hash(argv, capsys) == want


MODULE_GOLDEN = [
    (["rep", "dim", "--lam", "2,1,2"], None,
     "983bd614bb5afece5ab3b6023f71147cd7b6bc2314f9d27af7422541c6558389"),
    (["rep", "dim", "--lam", "1,2,1"], "toric",
     "dac53c17c250fd4d4d81eaf6d88435676dac1f3f3896441e277af839bf50ed8a"),
    (["rep", "fflv-check", "--lam", "1,1,1"], "pbw-locus-1",
     "b5bea41b6c623f7c09f1bf24dcae58ebab3c0cdd90ad966bc43a45b44867e12b"),
    (["rep", "annihilator-check", "--lam", "1,1,1"], "toric",
     "b5bea41b6c623f7c09f1bf24dcae58ebab3c0cdd90ad966bc43a45b44867e12b"),
]


@pytest.mark.parametrize("argv, label, want", MODULE_GOLDEN,
                         ids=[" ".join(argv[1:] + [label or "classical"])
                              for argv, label, _ in MODULE_GOLDEN])
def test_module_golden_output(argv, label, want, tmp_path, capsys):
    # the closure's dimension and verdicts at n=4, pinned by a hash of the JSON
    if label is not None:
        A = dict(canonical_weight_systems(4))[label]
        argv = argv + ["--weights", _write(tmp_path, "A.json", A.to_json())]
    assert _result_hash(argv, capsys) == want


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
    # n=12, d=(6): 6,594,456 exchanges
    ["ideal", "gen", "--n", "12", "--d", "6"],
    ["rep", "psi-check", "--n", "12", "--d", "6"],
    ["ideal", "check-quadratic", "--n", "12", "--d", "6", "--mu", "1"],
    ["ideal", "check-face-degeneration", "--n", "12", "--d", "6", "--mu", "1"],
    # the n=9 toric point on d=(4,5): 153,174 exchanges, and 31,878
    # monomials in degree 2, under the cap
    ["trop", "check", "--d", "4,5", "--degree-bound", "2"],
])
def test_relation_generation_is_guarded(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli.ideals, "plucker_relations", _refuse)
    monkeypatch.setattr(cli.tropical, "plucker_relations", _refuse)
    monkeypatch.delenv("PBWDEGEN_MAX_DIM", raising=False)
    if argv[0] == "trop":
        argv = argv + ["--point", _write(tmp_path, "pt.json", map_h(toric_weight_system(9)).to_json())]
    elif argv[1].startswith("check"):
        path = _write(tmp_path, "zero12.json", zero_weight_system(12).to_json())
        argv = argv + ["--weights", path]
        if argv[1] == "check-face-degeneration":
            argv += ["--weights-b", path]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "Pluecker relation exchanges" in err and "PBWDEGEN_MAX_DIM=100000" in err


def test_ideal_initial_builds_only_the_relations_that_fit_mu(tmp_path, capsys, monkeypatch):
    # n=12, d=(6): of the 6,594,456 exchanges, none fits mu=(1) and all fit
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
    assert "Pluecker relation exchanges 6594456 exceeds" in capsys.readouterr().err


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


def test_ideal_gen_of_size_one_walks_no_index(tmp_path):
    # size 1 alone has no relation, and generation does not look at the n indices
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "pbwdegen", "--format", "json", "ideal", "gen",
         "--n", "1000000000", "--d", "1"],
        capture_output=True, text=True, env=env, timeout=10,
    )
    assert time.monotonic() - start < 1.0
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"] == []


def test_ideal_gen_counts_index_entries_before_listing_them(tmp_path):
    # 100,000 indices pass, no exchange of size 99,999 has a rest off both
    # factors, and the indices hold 9,999,900,000 entries
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k != "PBWDEGEN_MAX_DIM"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "pbwdegen", "ideal", "gen", "--n", "100000", "--d", "99999"],
        capture_output=True, text=True, env=env, timeout=10,
    )
    assert time.monotonic() - start < 1.0
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == (
        "error: Pluecker index entries 9999900000 exceeds PBWDEGEN_MAX_DIM=100000\n")


def test_relation_guard_bound_is_inclusive(capsys, monkeypatch):
    # 10 sets U of three entries, each with its block {max U} and the 2
    # rests off U: 20 exchanges (the 10 indices hold 20 entries)
    argv = ["ideal", "gen", "--n", "5", "--d", "2"]
    monkeypatch.setenv("PBWDEGEN_MAX_DIM", "20")
    assert cli.main(argv) == 0
    monkeypatch.setenv("PBWDEGEN_MAX_DIM", "19")
    assert cli.main(argv) == 2
    assert "Pluecker relation exchanges 20 exceeds" in capsys.readouterr().err


def test_full_flag_at_n8_passes_the_relation_guard(capsys, monkeypatch):
    # 59,195 exchanges, under the default cap; the relations are stubbed
    # by the one relation of n=3 to keep the test fast
    small = cli.ideals.plucker_relations(3, (1, 2))
    built = []

    def stub(n, d, mu=None):
        built.append((n, d, mu))
        return small

    monkeypatch.setattr(cli.ideals, "plucker_relations", stub)
    monkeypatch.delenv("PBWDEGEN_MAX_DIM", raising=False)
    assert cli.main(["ideal", "gen", "--n", "8", "--d", "1,2,3,4,5,6,7"]) == 0
    assert built == [(8, (1, 2, 3, 4, 5, 6, 7), None)]
    assert "exceeds" not in capsys.readouterr().err


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


# a PASS line of the suite: check name, case count, noun and seconds
SUITE_PASS = re.compile(r"PASS  ([^:]+): (\d+) ([^,]+), \d+\.\d\ds")


def _suite_counts(lines):
    """{check: (count, noun)}; each of the 13 lines must pass with a
    positive case count."""
    matches = [SUITE_PASS.fullmatch(l) for l in lines if l.startswith(("PASS", "FAIL"))]
    assert len(matches) == 13 and all(m and int(m[2]) > 0 for m in matches), lines
    return {m[1]: (int(m[2]), m[3]) for m in matches}


def test_suite_capped(capsys):
    assert cli.main(["suite", "--n", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    passes = [l for l in lines if l.startswith("PASS")]
    assert len(passes) == 13
    assert not any("skipped" in l for l in lines)
    _suite_counts(lines)


def test_suite_counts_have_closed_forms(capsys):
    assert cli.main(["suite"]) == 0
    counts = _suite_counts(capsys.readouterr().out.splitlines())
    # 50 cone points each at n = 3..6; C(n + 2, 3) weights with coefficient sum
    # <= 3 for n = 2..5, and C(n + 1, 2) with sum <= 2 for n = 2..4; C(n, 2)
    # pairs omega_k + omega_m, k <= m < n, for n = 2..4
    assert counts["cone soundness"] == (200, "triangles")
    assert counts["dimension agreement"] == (69, "weights")
    assert counts["bijection round-trip"] == (19, "shapes")
    assert counts["Minkowski property"] == (10, "fundamental pairs")


def test_suite_fails_a_check_that_ran_no_case(capsys, monkeypatch):
    monkeypatch.setattr(cli.suite, "_flag_setups", lambda cap: [])
    assert cli.main(["suite", "--n", "3"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "FAIL  initial-ideal dimension: no case ran" in lines
    assert "FAIL  classical recovery: no case ran" in lines
    assert sum(l.startswith("PASS") for l in lines) == 11


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
    # one triangle of 4,999,950,000 entries, refused before any draw
    monkeypatch.setattr(cli.weights, "random_cone_points", _refuse)
    assert cli.main(["weights", "random", "--n", "100000", "--count", "1"]) == 2
    assert "PBWDEGEN_MAX_DIM" in capsys.readouterr().err


def test_weights_random_n_bound_is_inclusive(capsys, monkeypatch):
    # the guard counts the entries written, --count times n(n-1)/2
    monkeypatch.setenv("PBWDEGEN_MAX_DIM", "28")
    argv = ["--format", "json", "weights", "random", "--count", "1", "--n"]
    assert cli.main(argv + ["8"]) == 0
    [point] = json.loads(capsys.readouterr().out)["result"]
    assert point["n"] == 8
    assert cli.main(argv + ["9"]) == 2
    assert "entries of the --count triangles 36 exceeds" in capsys.readouterr().err
    monkeypatch.setenv("PBWDEGEN_MAX_DIM", "30")
    argv = ["weights", "random", "--n", "3", "--count"]
    assert cli.main(argv + ["10"]) == 0
    assert cli.main(argv + ["11"]) == 2


def test_weights_random_points_pass_weights_check(tmp_path, capsys):
    assert cli.main(["--format", "json", "weights", "random", "--n", "8", "--count", "50"]) == 0
    points = json.loads(capsys.readouterr().out)["result"]
    assert len(points) == 50
    for number, point in enumerate(points):
        path = _write(tmp_path, f"p{number}.json", point)
        assert cli.main(["weights", "check", "--weights", path]) == 0
        assert "member=true" in capsys.readouterr().out


def test_weights_random_refuses_a_negative_count(capsys, monkeypatch):
    monkeypatch.setattr(cli.weights, "random_cone_points", _refuse)
    assert cli.main(["weights", "random", "--count", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --count must be nonnegative, got -1\n"


@pytest.mark.parametrize("argv, params", [
    (["weights", "random", "--n", "4", "--count", "2", "--seed", "7"],
     {"count": 2, "n": 4, "seed": 7}),
    (["weights", "random"], {"count": 10, "n": 3, "seed": 0}),
    (["weights", "canonical", "--n", "4"], {"n": 4}),
    (["suite", "--n", "3"], {"n": 3}),
    (["suite"], {}),
])
def test_manifest_records_the_params(argv, params, capsys, monkeypatch):
    monkeypatch.setattr(cli.suite, "run_suite", lambda cap: [("stub", True, f"cap={cap}")])
    assert cli.main(["--format", "json"] + argv) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["manifest"]["params"] == params
    if argv[:2] == ["weights", "random"]:
        # the sample is drawn again from the params its manifest records
        again = ["weights", "random"] + [f"--{k}={v}" for k, v in sorted(params.items())]
        assert cli.main(["--format", "json"] + again) == 0
        assert json.loads(capsys.readouterr().out)["result"] == data["result"]


@pytest.mark.parametrize("argv, size", [
    (["weights", "canonical", "--n", "4"], 7),  # 2^(4-2) + 3 systems
    (["weights", "random", "--n", "2", "--count", "5"], 5),  # one entry each
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
    [[{"coeff": "1", "monomial": [[[2], 1], [[1], 1]]}]],  # variables out of order
    [[{"coeff": "1", "monomial": [[[1], 1], [[1], 1]]}]],  # a variable twice
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


def test_psi_check_fails_a_relation_with_one_sign_flipped(tmp_path, capsys):
    assert cli.main(["--format", "json", "ideal", "gen", "--n", "4", "--d", "1,2"]) == 0
    rels = json.loads(capsys.readouterr().out)["result"]
    term = rels[-1][-1]
    term["coeff"] = str(-Fraction(term["coeff"]))
    path = _write(tmp_path, "rels.json", rels)
    argv = ["rep", "psi-check", "--n", "4", "--d", "1,2", "--relations", path]
    assert cli.main(argv) == 1
    assert "psi=false" in capsys.readouterr().out


def _refuse_substitution(*args):
    raise AssertionError("started the substitution")


@pytest.mark.parametrize("n, variable, exponent", [
    (3, [3], 2000),  # C_3 has 2 terms: 2^2000 of them
    (6, [6], 23),  # 98,280 monomials in the component, but 16^23 terms
    (3, [1], 10**9),  # C_1 = 1 has one term, but 10^9 products
])
def test_psi_check_bounds_the_expansion_first(n, variable, exponent, tmp_path, capsys, monkeypatch):
    path = _write(tmp_path, "rels.json", [[{"coeff": "1", "monomial": [[variable, exponent]]}]])
    monkeypatch.setattr(cli.representations, "psi_vanishes", _refuse_substitution)
    assert cli.main(["rep", "psi-check", "--n", str(n), "--d", "1", "--relations", path]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "psi expansion of relation 1" in err


def test_psi_check_stops_the_image_build_at_the_cap(tmp_path, capsys, monkeypatch):
    # classically C_j of size 1 has 2^(j-2) terms, 32,768 in all at n=16;
    # the build stops after the power of the action that passes 2,000, and
    # the action tables, 120 generators on 16 basis vectors, fit that cap
    path = _write(tmp_path, "rels.json", [[{"coeff": "1", "monomial": [[[1], 1]]}]])
    monkeypatch.setenv("PBWDEGEN_MAX_DIM", "2000")
    monkeypatch.setattr(cli.representations, "psi_vanishes", _refuse_substitution)
    start = time.monotonic()
    assert cli.main(["rep", "psi-check", "--n", "16", "--d", "1", "--relations", path]) == 2
    assert time.monotonic() - start < 0.5
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "psi images have more terms than PBWDEGEN_MAX_DIM=2000" in err


def test_psi_check_guards_the_action_tables_before_building_them(tmp_path, capsys, monkeypatch):
    # 4,950 generators on 100 wedge basis vectors: 495,000 action calls
    path = _write(tmp_path, "rels.json", [])
    monkeypatch.setattr(cli.representations, "psi_images", _refuse)
    monkeypatch.delenv("PBWDEGEN_MAX_DIM", raising=False)
    assert cli.main(["rep", "psi-check", "--n", "100", "--d", "1", "--relations", path]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "psi action table" in err and "495000 exceeds" in err


HUGE = "1" + "0" * 1500  # a size past 4,300 digits comes of it


@pytest.mark.parametrize("argv", [
    # binomials of at least 2^17 > 100,000, refused before they are formed
    ["rep", "psi-check", "--n", "20000", "--d", "10000"],
    ["rep", "psi-check", "--n", "1000000", "--d", "500000"],
    ["ideal", "initial", "--n", "100", "--d", "50", "--mu", "1000", "--weights", "A"],
    ["ideal", "initial", "--n", "20000", "--d", "10000", "--mu", "1", "--weights", "A"],
    ["ideal", "initial", "--n", "1000000", "--d", "500000", "--mu", "1", "--weights", "A"],
    ["trop", "check", "--point", "P", "--degree-bound", "100000"],
    # sizes too long to print, named by their bit length
    ["rep", "psi-check", "--n", HUGE, "--d", "1"],
    ["ideal", "gen", "--n", HUGE, "--d", "1,2"],
], ids=lambda argv: " ".join(a[:8] for a in argv[:4]))
def test_huge_sizes_exit_two_at_once(argv, tmp_path, capsys, monkeypatch):
    files = {"A": _write(tmp_path, "zero3.json", zero_weight_system(3).to_json()),
             "P": _write(tmp_path, "toric12.json", map_h(toric_weight_system(12)).to_json())}
    monkeypatch.delenv("PBWDEGEN_MAX_DIM", raising=False)
    start = time.monotonic()
    assert cli.main([files.get(a, a) for a in argv]) == 2
    assert time.monotonic() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "exceeds PBWDEGEN_MAX_DIM=100000" in captured.err


def test_a_zero_entry_of_mu_adds_no_binomial(tmp_path, capsys, monkeypatch):
    # C(10, 5) >= 2^5 > 10 indices of size 5, none in a monomial of mu=(1, 0):
    # the component holds the 10 variables of size 1
    path = _write(tmp_path, "zero10.json", zero_weight_system(10).to_json())
    monkeypatch.setenv("PBWDEGEN_MAX_DIM", "10")
    argv = ["ideal", "initial", "--n", "10", "--d", "1,5", "--mu", "1,0", "--weights", path]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.splitlines()[0] == "rank=0"
    monkeypatch.setenv("PBWDEGEN_MAX_DIM", "9")
    assert cli.main(argv) == 2
    assert "component dimension 10 exceeds" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    # C(100, 50) >= 2^50 indices of size 50, and C(20000, 10000) >= 2^10000
    ["degrees", "--weights", "Z", "--d", "50"],
    ["ideal", "gen", "--n", "20000", "--d", "10000"],
    ["ideal", "initial", "--n", "100", "--d", "50", "--mu", "0", "--weights", "Z"],
], ids=["degrees", "ideal gen", "ideal initial mu=0"])
def test_index_counts_are_refused_before_any_index_is_listed(argv, tmp_path, capsys,
                                                             monkeypatch):
    monkeypatch.setattr(cli.degrees, "all_indices", _refuse)
    monkeypatch.setattr(cli.ideals, "relation_exchanges", _refuse)
    monkeypatch.delenv("PBWDEGEN_MAX_DIM", raising=False)
    path = _write(tmp_path, "zero100.json", zero_weight_system(100).to_json())
    start = time.monotonic()
    assert cli.main([path if a == "Z" else a for a in argv]) == 2
    assert time.monotonic() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith(
        "error: Pluecker indices exceeds PBWDEGEN_MAX_DIM=100000 (at least 2^")


def test_index_count_bound_is_inclusive(tmp_path, capsys, monkeypatch):
    # 10 + 10 indices of sizes 2 and 3 at n=5, one grade each
    path = _write(tmp_path, "zero5.json", zero_weight_system(5).to_json())
    argv = ["degrees", "--weights", path, "--d", "2,3"]
    monkeypatch.setenv("PBWDEGEN_MAX_DIM", "20")
    assert cli.main(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == 21  # and the manifest
    monkeypatch.setenv("PBWDEGEN_MAX_DIM", "19")
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: Pluecker indices 20 exceeds PBWDEGEN_MAX_DIM=19\n"


def test_relation_guard_counts_the_indices_first(capsys, monkeypatch):
    # the size pairs (2, 1) and (2, 2) walk the 5 + 10 indices of n=5
    monkeypatch.setattr(cli.ideals, "relation_exchanges", _refuse)
    monkeypatch.setenv("PBWDEGEN_MAX_DIM", "14")
    assert cli.main(["ideal", "gen", "--n", "5", "--d", "1,2"]) == 2
    assert "Pluecker indices 15 exceeds" in capsys.readouterr().err


def test_ideal_initial_lists_only_the_sizes_of_mu(tmp_path, capsys):
    # the 5,050 monomials of degree 2 in the 100 variables of size 1 hold no
    # relation; the C(100, 50) indices of size 50 were listed and graded
    path = _write(tmp_path, "zero100.json", zero_weight_system(100).to_json())
    argv = ["ideal", "initial", "--n", "100", "--d", "1,50", "--mu", "2,0", "--weights", path]
    start = time.monotonic()
    assert cli.main(argv) == 0
    assert time.monotonic() - start < 1.0
    assert capsys.readouterr().out.splitlines()[0] == "rank=0"


@pytest.mark.parametrize("mu, rank", [((1, 0, 1), 1), ((0, 2, 0), 1), ((2, 0, 1), 4),
                                      ((0, 0, 0), 0)])
def test_ideal_initial_without_the_unused_sizes_is_the_full_component(mu, rank, tmp_path,
                                                                      capsys):
    # the component as the library gives it over every size of --d
    n, d = 4, (1, 2, 3)
    A = toric_weight_system(n)
    path = _write(tmp_path, "toric4.json", A.to_json())
    argv = ["--format", "json", "ideal", "initial", "--n", "4", "--d", "1,2,3",
            "--mu", ",".join(map(str, mu)), "--weights", path]
    assert cli.main(argv) == 0
    got = json.loads(capsys.readouterr().out)["result"]
    cb = initial_component(plucker_relations(n, d), n, d, mu, grading_vector(A, d))
    assert got == {"rank": rank, "rows": [p.to_json() for p in cb.row_polynomials()]}


WALKS = ["fflv count", "fflv patterns", "tableaux roundtrip", "rep fflv-check",
         "rep annihilator-check"]


@pytest.mark.parametrize("action", WALKS + ["tableaux count", "rep dim", "fflv dim"])
def test_pattern_walks_guard_their_dyck_paths(action, tmp_path, capsys, monkeypatch):
    # n=7, lam = omega_1: Weyl dimension 7, but the walk keeps 104 Dyck paths
    path = _write(tmp_path, "toric7.json", toric_weight_system(7).to_json())
    argv = action.split() + ["--lam", "1,0,0,0,0,0"]
    if action in ("rep fflv-check", "rep annihilator-check"):
        argv += ["--weights", path]
    monkeypatch.setenv("PBWDEGEN_MAX_DIM", "103")
    if action in WALKS:
        monkeypatch.setattr(cli.fflv, "dyck_paths", _refuse)
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err == "error: Dyck paths of the pattern walk 104 exceeds PBWDEGEN_MAX_DIM=103\n"
        monkeypatch.undo()
        monkeypatch.setenv("PBWDEGEN_MAX_DIM", "104")
    assert cli.main(argv) == 0


def test_dyck_path_guard_is_the_closed_form(monkeypatch):
    from pbwdegen.fflv import dyck_paths
    cases = [(n, len(dyck_paths(n))) for n in range(2, 10)] + [(12, 33615), (13, 116115)]
    for n, paths in cases:
        monkeypatch.setenv("PBWDEGEN_MAX_DIM", str(paths))
        cli._guard_dyck_paths(n)
        monkeypatch.setenv("PBWDEGEN_MAX_DIM", str(paths - 1))
        with pytest.raises(cli.InputError, match=f"walk {paths} exceeds"):
            cli._guard_dyck_paths(n)


def test_fflv_count_at_n14_exits_two_at_once(capsys, monkeypatch):
    # Weyl dimension 14, but 406,627 Dyck paths; the walk took 44 s
    monkeypatch.delenv("PBWDEGEN_MAX_DIM", raising=False)
    monkeypatch.setattr(cli.fflv, "dyck_paths", _refuse)
    start = time.monotonic()
    assert cli.main(["fflv", "count", "--lam", ",".join(["1"] + ["0"] * 12)]) == 2
    assert time.monotonic() - start < 1.0
    assert "Dyck paths of the pattern walk 406627 exceeds" in capsys.readouterr().err
    # a rank too large for the sum to be formed is refused by its last Catalan term
    assert cli.main(["fflv", "count", "--lam", ",".join(["0"] * 10000)]) == 2
    assert "(at least 2^9998)" in capsys.readouterr().err


def test_psi_check_passes_the_relations_of_n5(tmp_path, capsys):
    d = "1,2,3,4"
    assert cli.main(["--format", "json", "ideal", "gen", "--n", "5", "--d", d]) == 0
    path = _write(tmp_path, "rels.json", json.loads(capsys.readouterr().out)["result"])
    assert cli.main(["rep", "psi-check", "--n", "5", "--d", d, "--relations", path]) == 0
    assert "psi=true" in capsys.readouterr().out


@pytest.mark.parametrize("value", [0.1, True, 1.0, None, "1/0x", "1/0"])
def test_trop_check_non_rational_point_exits_two(value, tmp_path, capsys):
    data = map_h(abelian_weight_system(3)).to_json()
    data["s"]["1,2"] = value
    path = _write(tmp_path, "pt.json", data)
    assert cli.main(["trop", "check", "--point", path]) == 2
    assert "bad tropical point" in capsys.readouterr().err


@pytest.mark.parametrize("spelling", [" 2,3", "2, 3", "+2,3", "02,3", "2,3 ", "2_0,3"])
def test_weight_key_spelled_otherwise_exits_two(spelling, tmp_path, capsys):
    path = _write(tmp_path, "w.json", {"n": 3, "a": {"1,2": 0, "1,3": 0, spelling: 0}})
    assert cli.main(["weights", "check", "--weights", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    want = "2,3" if spelling != "2_0,3" else "20,3"
    assert captured.err == f"error: bad weight system in {path}: key {spelling!r} is not spelled {want}\n"


def test_weight_pair_spelled_twice_is_a_repeat(tmp_path, capsys):
    path = _write(tmp_path, "w.json", {"n": 3, "a": {"1,2": 0, "2,3": 0, "01,2": 0}})
    assert cli.main(["weights", "check", "--weights", path]) == 2
    assert capsys.readouterr().err == (
        f"error: bad weight system in {path}: key '01,2' repeats the pair [1, 2] of key '1,2'\n")


@pytest.mark.parametrize("action", ["check", "witness"])
@pytest.mark.parametrize("spelling", [" 2,3", "2, 3", "+2,3", "02,3", "2,3,"])
def test_point_key_spelled_otherwise_exits_two(action, spelling, tmp_path, capsys):
    data = map_h(abelian_weight_system(3)).to_json()
    data["s"] = {spelling if k == "2,3" else k: v for k, v in data["s"].items()}
    path = _write(tmp_path, "pt.json", data)
    assert cli.main(["trop", action, "--point", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    if spelling == "2,3,":  # int("") fails before the spelling is read
        assert captured.err.startswith(f"error: bad tropical point in {path}: invalid literal")
    else:
        assert captured.err == (
            f"error: bad tropical point in {path}: key {spelling!r} is not spelled 2,3\n")


def test_point_subset_spelled_twice_is_a_repeat(tmp_path, capsys):
    data = map_h(abelian_weight_system(3)).to_json()
    data["s"]["02,3"] = 0
    path = _write(tmp_path, "pt.json", data)
    assert cli.main(["trop", "check", "--point", path]) == 2
    assert capsys.readouterr().err == (
        f"error: bad tropical point in {path}: key '02,3' repeats the subset [2, 3] of key '2,3'\n")


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


def test_a_run_builds_the_actions_of_its_command_only(monkeypatch, capsys):
    built = []
    real = cli._add_actions
    monkeypatch.setattr(cli, "_add_actions",
                        lambda parser, command: built.append(command) or real(parser, command))
    assert cli.main(["fflv", "dim", "--lam", "1,1"]) == 0
    assert built == ["fflv"]
    # a flag value that spells another command picks nothing
    built.clear()
    assert cli.main(["weights", "check", "--file", "suite"]) == 2
    assert built == ["weights"]
    assert "cannot read suite" in capsys.readouterr().err


def test_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert "{" + ",".join(cli.COMMANDS) + "}" in capsys.readouterr().out


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
