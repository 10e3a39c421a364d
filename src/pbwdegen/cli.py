"""Command-line front end.

One binary with subcommands for weight systems, gradings, pattern and
tableau combinatorics, ideal components, representation checks, the
tropical cone, and the full verification suite. All numeric output is
exact; JSON output is stable-key-sorted and every run ends with a
reproducibility manifest.

Every action is one row of ``ACTIONS``: its handler, the flags it needs
and the flags it may take. The parser, the required-flag check and the
dispatch in ``main`` are all built from that table.
"""

import argparse
import hashlib
import json
import os
import sys
import time
from math import comb, prod

from . import __version__, degrees, fflv, ideals, representations, suite, tableaux, tropical, weights


class InputError(Exception):
    """Malformed user input; reported with exit code 2."""


def _parse_ints(text, what):
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise InputError(f"cannot parse {what}: {text!r}")


def _parse_sizes(text, n):
    d = _parse_ints(text, "--d")
    try:
        return degrees.check_sizes(n, d)
    except ValueError as exc:
        raise InputError(str(exc))


def _max_dim():
    raw = os.environ.get("PBWDEGEN_MAX_DIM")
    if raw is None:
        return 100000
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"PBWDEGEN_MAX_DIM must be an integer, got {raw!r}")


def _guard_size(what, size):
    max_dim = _max_dim()
    if size > max_dim:
        raise InputError(f"{what} {size} exceeds PBWDEGEN_MAX_DIM={max_dim}")


def _guard_component(n, d, mu):
    # the monomials of multidegree mu, counted without listing them
    dim = prod(comb(comb(n, k) + m - 1, m) for k, m in zip(d, mu))
    _guard_size("component dimension", dim)


def _guard_relations(n, d, mu=None):
    # the exchanges plucker_relations examines for the size pairs p >= q
    # (with mu, those that fit mu): both index sets, and every block of
    # k <= min(q, p - 1) entries of the second
    exchanges = sum(
        comb(n, p) * comb(n, q) * sum(comb(q, k) for k in range(1, min(q, p - 1) + 1))
        for p, q in ideals.relation_pairs(d, mu)
    )
    _guard_size("Pluecker relation exchanges", exchanges)


class Run:
    """Parses the shared flags and collects manifest data while an action
    executes."""

    def __init__(self, argv, fmt):
        self.argv = argv
        self.fmt = fmt
        self.start = time.monotonic()
        self.hashes = {}
        self.params = {}
        self.verdicts = {}

    def lam(self, text):
        """The dominant weight of --lam, recorded."""
        coeffs = _parse_ints(text, "dominant weight")
        if any(c < 0 for c in coeffs):
            raise InputError("dominant weight coefficients must be nonnegative")
        self.params["lam"] = list(coeffs)
        return fflv.DominantWeight(len(coeffs) + 1, coeffs)

    def sizes(self, n, text):
        """The sizes of --d for rank n, recorded."""
        d = _parse_sizes(text, n)
        self.params["d"] = list(d)
        return d

    def rank_and_sizes(self, args):
        """--n and --d, both recorded."""
        self.params["n"] = args.n
        return args.n, self.sizes(args.n, args.d)

    def load_json(self, path):
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read {path}: {exc}")
        self.hashes[path] = hashlib.sha256(blob).hexdigest()
        try:
            return json.loads(blob)
        except json.JSONDecodeError as exc:
            raise InputError(f"{path} is not valid JSON: {exc}")

    def load_weights(self, path):
        data = self.load_json(path)
        try:
            return weights.WeightSystem.from_json(data)
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad weight system in {path}: {exc}")

    def load_admissible(self, path, n=None, flag="--n"):
        """A weight system in the admissible cone, of rank n when n is given."""
        A = self.load_weights(path)
        if n is not None and A.n != n:
            raise InputError(f"the weight system has n={A.n} but {flag} gives n={n}")
        weights.require_cone_membership(A)
        return A

    def load_point(self, path):
        data = self.load_json(path)
        try:
            return tropical.TropicalPoint.from_json(data)
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad tropical point in {path}: {exc}")

    def manifest(self):
        return {
            "command": self.argv,
            "input_hashes": dict(sorted(self.hashes.items())),
            "params": {k: self.params[k] for k in sorted(self.params)},
            "elapsed_seconds": round(time.monotonic() - self.start, 3),
            "verdicts": {k: self.verdicts[k] for k in sorted(self.verdicts)},
            "version": __version__,
        }

    def emit(self, payload, text_lines):
        """Print the result with the manifest; returns exit code 0."""
        if self.fmt == "json":
            out = {"result": payload, "manifest": self.manifest()}
            json.dump(out, sys.stdout, indent=2, sort_keys=True)
            sys.stdout.write("\n")
        else:
            for line in text_lines:
                print(line)
            print("# manifest " + json.dumps(self.manifest(), sort_keys=True))
        return 0

    def report(self, verdicts, payload, text_lines):
        """Record the verdicts, print the result and return 0 if every
        verdict holds, else 1."""
        self.verdicts.update(verdicts)
        self.emit(payload, text_lines)
        return 0 if all(verdicts.values()) else 1

    def verdict(self, key, ok, label):
        """A single verdict printed as ``label=true`` or ``label=false``."""
        return self.report({key: ok}, ok, [f"{label}={str(ok).lower()}"])


def _rel_from_json(entry, n, d):
    """One relation as written by ``ideal gen``. Every variable must be a
    Pluecker index of [1, n] whose size is in d, with a positive integer
    exponent; coefficients are read as in tropical points."""
    terms = {}
    for item in entry:
        mono = []
        for e, x in item["monomial"]:
            elems = degrees.check_index(n, e)
            if len(elems) not in d:
                raise ValueError(f"variable {list(elems)} has a size outside --d")
            if weights.json_int(x, "an exponent") < 1:
                raise ValueError(f"exponent {x} of {list(elems)} is not positive")
            mono.append((elems, x))
        if tuple(mono) in terms:
            raise ValueError(f"monomial {item['monomial']} appears twice")
        terms[tuple(mono)] = weights.json_rational(item["coeff"], "a coefficient")
    return ideals.GradedPolynomial(terms)


# -- action handlers ---------------------------------------------------------


def weights_check(run, args):
    A = run.load_weights(args.weights)
    member = weights.check_cone_membership(A)
    info = {"n": A.n, "member": member, "interior": False}
    lines = [f"member={str(member).lower()}"]
    if member:
        sig = weights.face_signature(A)
        info["interior"] = weights.is_interior(A)
        info["tight_a"] = sorted(sig.tight_a)
        info["tight_b"] = sorted(list(p) for p in sig.tight_b)
        lines.append(f"interior={str(info['interior']).lower()}")
    return run.report({"member": member}, info, lines)


def _weights_rank(args):
    if args.n < 2:
        raise InputError(f"weights {args.action} needs --n >= 2")
    return args.n


def weights_canonical(run, args):
    n = _weights_rank(args)
    # 2^(n-2) + 3 systems; past the bit length of the bound the power is
    # known to exceed it and is not built
    max_dim = _max_dim()
    if n - 2 >= max_dim.bit_length():
        raise InputError(f"2^{n - 2}+3 weight systems exceed PBWDEGEN_MAX_DIM={max_dim}")
    _guard_size("canonical weight systems", 2 ** (n - 2) + 3)
    out = [
        {"label": label, "weights": A.to_json()}
        for label, A in weights.canonical_weight_systems(n)
    ]
    return run.emit(out, [e["label"] for e in out])


# above this rank admissible triangles are too rare to sample (none in 100 s at n=7)
RANDOM_MAX_N = 6


def weights_random(run, args):
    n = _weights_rank(args)
    if n > RANDOM_MAX_N:
        raise InputError(f"weights random needs --n <= {RANDOM_MAX_N}, got {n}")
    _guard_size("--count", args.count)
    out = [A.to_json() for A in weights.random_cone_points(n, args.count, seed=args.seed)]
    return run.emit(out, [json.dumps(e, sort_keys=True) for e in out])


def degrees_grading(run, args):
    A = run.load_admissible(args.weights)
    g = degrees.grading_vector(A, run.sizes(A.n, args.d))
    out = dict(sorted((degrees.index_label(I), v) for I, v in g.items()))
    return run.emit(out, [f"{k} {v}" for k, v in out.items()])


def fflv_dim(run, args):
    dim = fflv.weyl_dim(run.lam(args.lam))
    return run.emit(dim, [str(dim)])


def _enumerable_lam(run, args):
    """--lam, refused before any enumeration or module closure when its
    Weyl dimension is too large."""
    lam = run.lam(args.lam)
    _guard_size("Weyl dimension", fflv.weyl_dim(lam))
    return lam


def fflv_count(run, args):
    count = fflv.count_patterns(_enumerable_lam(run, args))
    return run.emit(count, [str(count)])


def fflv_patterns(run, args):
    out = [T.to_json() for T in fflv.enumerate_patterns(_enumerable_lam(run, args))]
    return run.emit(out, [json.dumps(e, sort_keys=True) for e in out])


def tableaux_count(run, args):
    count = tableaux.count_ssyt(_enumerable_lam(run, args))
    return run.emit(count, [str(count)])


def tableaux_roundtrip(run, args):
    ok = tableaux.bijection_failure(_enumerable_lam(run, args)) is None
    return run.verdict("roundtrip", ok, "roundtrip")


def ideal_gen(run, args):
    n, d = run.rank_and_sizes(args)
    _guard_relations(n, d)
    gens = ideals.plucker_relations(n, d)
    return run.emit([p.to_json() for p in gens], [str(p) for p in gens])


def _component(run, args):
    """--n, --d, --mu and --weights of one ideal component, checked."""
    n, d = run.rank_and_sizes(args)
    mu = _parse_ints(args.mu, "--mu")
    if len(mu) != len(d):
        raise InputError("--mu must have one entry per size in --d")
    if any(m < 0 for m in mu):
        raise InputError("--mu entries must be nonnegative")
    run.params["mu"] = list(mu)
    _guard_component(n, d, mu)
    return n, d, mu, run.load_admissible(args.weights, n)


def ideal_initial(run, args):
    n, d, mu, A = _component(run, args)
    _guard_relations(n, d, mu)  # only the relations that fit mu are built
    gens = ideals.plucker_relations(n, d, mu)
    cb = ideals.initial_component(gens, n, d, mu, degrees.grading_vector(A, d))
    polys = cb.row_polynomials()
    payload = {"rank": cb.rank, "rows": [p.to_json() for p in polys]}
    return run.emit(payload, [f"rank={cb.rank}"] + [str(p) for p in polys])


def ideal_check_quadratic(run, args):
    n, d, mu, A = _component(run, args)
    _guard_relations(n, d)
    ok = ideals.quadratic_generation_check(A, n, d, mu)
    return run.verdict("quadratic", ok, "quadratic")


def ideal_check_face_degeneration(run, args):
    n, d, mu, A = _component(run, args)
    _guard_relations(n, d)
    B = run.load_admissible(args.weights_b, n)
    try:
        ok = ideals.face_degeneration_check(A, B, n, d, mu)
    except ValueError as exc:
        raise InputError(str(exc))
    return run.verdict("face_degeneration", ok, "face-degeneration")


def _module(run, args):
    """The weight system (None without --weights) and --lam of a module."""
    lam = _enumerable_lam(run, args)
    if args.weights is None:
        return None, lam
    return run.load_admissible(args.weights, lam.n, "--lam"), lam


def rep_dim(run, args):
    dim = representations.cyclic_module_dim(*_module(run, args))
    return run.emit(dim, [str(dim)])


def rep_fflv_check(run, args):
    ok = representations.fflv_basis_check(*_module(run, args))
    return run.verdict("fflv_basis", ok, "fflv-basis")


def rep_annihilator_check(run, args):
    ok = representations.annihilator_monomial_check(*_module(run, args))
    return run.verdict("annihilator", ok, "annihilator-monomial")


def rep_psi_check(run, args):
    n, d = run.rank_and_sizes(args)
    A = None if args.weights is None else run.load_admissible(args.weights, n)
    if args.relations is None:
        _guard_relations(n, d)
        rels = ideals.plucker_relations(n, d)
    else:
        data = run.load_json(args.relations)
        try:
            rels = [_rel_from_json(e, n, d) for e in data]
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad relation in {args.relations}: {exc!r}")
    ok = representations.psi_substitution_check(rels, n, d, A)
    return run.verdict("psi", ok, "psi")


def trop_map(run, args):
    out = tropical.map_h(run.load_admissible(args.weights)).to_json()
    return run.emit(out, [f"{k} {v}" for k, v in sorted(out["s"].items())])


def trop_check(run, args):
    bound = args.degree_bound
    # below degree 2 no component holds a relation, so nothing would be checked
    if bound is not None and bound < 2:
        raise InputError(f"--degree-bound must be at least 2, got {bound}")
    point = run.load_point(args.point)
    d = tuple(range(1, point.n)) if args.d is None else _parse_sizes(args.d, point.n)
    ok, violations = tropical.cone_C_membership(point)
    verdicts = {"cone_C": ok}
    payload = {"in_cone": ok, "violations": violations}
    lines = [f"in-cone={str(ok).lower()}"] + violations
    if ok and bound is not None:
        run.params["degree_bound"] = bound
        # the components of degree 2 to bound together: the monomials of
        # degree <= bound in N variables, less those of degree 0 and 1
        N = sum(comb(point.n, k) for k in d)
        _guard_size(f"components of degree 2 to {bound}, total dimension",
                    comb(N + bound, bound) - 1 - N)
        _guard_relations(point.n, d)
        no_mono = tropical.in_trop_necessary_check(point, d, bound)
        verdicts["bounded_no_monomial"] = payload["no_monomial_up_to_bound"] = no_mono
        if no_mono:
            lines.append(f"no monomial found up to degree {bound}")
        else:
            lines.append(f"monomial found at degree <= {bound}")
    return run.report(verdicts, payload, lines)


def trop_witness(run, args):
    point = run.load_point(args.point)
    try:
        w = tropical.maximality_witness(point)
    except ValueError as exc:
        raise InputError(str(exc))
    if w is None:
        return run.emit(None, ["no violated inequality"])
    return run.emit(w.to_json(), [str(w)])


def suite_run(run, args):
    # checked here rather than by catching run_suite's ValueError, which
    # would also turn a ValueError raised inside a check into exit 2
    if args.n is not None and args.n < suite.MIN_CAP:
        raise InputError(f"suite --n must be at least {suite.MIN_CAP}, got {args.n}")
    results = suite.run_suite(cap=args.n)
    lines = [f"{'PASS' if ok else 'FAIL'}  {name}: {detail}" for name, ok, detail in results]
    payload = [{"check": name, "ok": ok, "detail": detail} for name, ok, detail in results]
    return run.report({name: ok for name, ok, _ in results}, payload, lines)


# -- the action table and argument parsing -----------------------------------

COMMANDS = {
    "weights": "cone membership and reference systems",
    "degrees": "grading vector of a weight system",
    "fflv": "pattern polytope enumeration",
    "tableaux": "PBW semistandard tableaux",
    "ideal": "Pluecker ideal components",
    "rep": "degenerate representation checks",
    "trop": "tropical cone and certificates",
    "suite": "run the full verification battery; --n caps the rank used by the checks",
}

COMPONENT = ("n", "d", "mu", "weights")

# (command, action) -> (handler, required flags, {optional flag: default}).
# A command without actions has the action None.
ACTIONS = {
    ("weights", "check"): (weights_check, ("weights",), {}),
    ("weights", "canonical"): (weights_canonical, (), {"n": 3}),
    ("weights", "random"): (weights_random, (), {"n": 3, "count": 10, "seed": 0}),
    ("degrees", None): (degrees_grading, ("weights", "d"), {}),
    ("fflv", "count"): (fflv_count, ("lam",), {}),
    ("fflv", "patterns"): (fflv_patterns, ("lam",), {}),
    ("fflv", "dim"): (fflv_dim, ("lam",), {}),
    ("tableaux", "count"): (tableaux_count, ("lam",), {}),
    ("tableaux", "roundtrip"): (tableaux_roundtrip, ("lam",), {}),
    ("ideal", "gen"): (ideal_gen, ("n", "d"), {}),
    ("ideal", "initial"): (ideal_initial, COMPONENT, {}),
    ("ideal", "check-quadratic"): (ideal_check_quadratic, COMPONENT, {}),
    ("ideal", "check-face-degeneration"): (
        ideal_check_face_degeneration, COMPONENT + ("weights-b",), {}
    ),
    ("rep", "dim"): (rep_dim, ("lam",), {"weights": None}),
    ("rep", "fflv-check"): (rep_fflv_check, ("lam", "weights"), {}),
    ("rep", "annihilator-check"): (rep_annihilator_check, ("lam", "weights"), {}),
    ("rep", "psi-check"): (rep_psi_check, ("n", "d"), {"weights": None, "relations": None}),
    ("trop", "map"): (trop_map, ("weights",), {}),
    ("trop", "check"): (trop_check, ("point",), {"d": None, "degree-bound": None}),
    ("trop", "witness"): (trop_witness, ("point",), {}),
    ("suite", None): (suite_run, (), {"n": None}),
}

INT_FLAGS = ("n", "count", "seed", "degree-bound")


def build_parser():
    """One subparser per action, holding exactly that action's flags."""
    parser = argparse.ArgumentParser(
        prog="pbwdegen",
        description="Weighted PBW degenerations of type-A flag varieties.",
    )
    parser.add_argument("--format", choices=("json", "text"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {name: sub.add_parser(name, help=h, description=h) for name, h in COMMANDS.items()}
    actions = {}
    for (command, action), (_, required, optional) in ACTIONS.items():
        p = commands[command]
        if action is not None:
            if command not in actions:
                actions[command] = p.add_subparsers(dest="action", required=True)
            p = actions[command].add_parser(action)
        for flag in required + tuple(optional):
            names = [f"--{flag}"]
            if (command, flag) == ("weights", "weights"):
                names.append("--file")
            kind = int if flag in INT_FLAGS else str
            need = "required" if flag in required else None
            p.add_argument(*names, type=kind, default=optional.get(flag), help=need)
        p.set_defaults(key=(command, action))
    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    handler, required, _ = ACTIONS[args.key]
    run = Run(["pbwdegen"] + argv, args.format)
    try:
        for flag in required:
            if getattr(args, flag.replace("-", "_")) is None:
                raise InputError(f"{' '.join(filter(None, args.key))} needs --{flag}")
        return handler(run, args)
    except (InputError, weights.NotInConeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
