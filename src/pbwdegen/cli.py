"""Command-line front end.

One binary with subcommands for weight systems, gradings, pattern and
tableau combinatorics, ideal components, representation checks, the
tropical cone, and the full verification suite. All numeric output is
exact; JSON output is stable-key-sorted and every run ends with a
reproducibility manifest.
"""

import argparse
import hashlib
import json
import os
import sys
import time

from . import __version__, degrees, fflv, ideals, representations, suite, tableaux, tropical, weights


class InputError(Exception):
    """Malformed user input; reported with exit code 2."""


def _parse_ints(text, what):
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise InputError(f"cannot parse {what}: {text!r}")


def _parse_lam(text):
    coeffs = _parse_ints(text, "dominant weight")
    if any(c < 0 for c in coeffs):
        raise InputError("dominant weight coefficients must be nonnegative")
    return fflv.DominantWeight(len(coeffs) + 1, coeffs)


def _parse_sizes(text, n):
    d = _parse_ints(text, "--d")
    try:
        return degrees.check_sizes(n, d)
    except ValueError as exc:
        raise InputError(str(exc))


def _check_n(A, n, flag):
    if A.n != n:
        raise InputError(f"the weight system has n={A.n} but {flag} gives n={n}")


def _require_cone(A):
    try:
        weights.require_cone_membership(A)
    except weights.NotInConeError as exc:
        raise InputError(str(exc))


def _max_dim():
    raw = os.environ.get("PBWDEGEN_MAX_DIM")
    if raw is None:
        return 100000
    try:
        return int(raw)
    except ValueError:
        raise InputError(f"PBWDEGEN_MAX_DIM must be an integer, got {raw!r}")


class Run:
    """Collects manifest data while a subcommand executes."""

    def __init__(self, argv):
        self.argv = argv
        self.start = time.monotonic()
        self.hashes = {}
        self.params = {}
        self.verdicts = {}

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


def _emit(run, payload, fmt, text_lines):
    if fmt == "json":
        out = {"result": payload, "manifest": run.manifest()}
        json.dump(out, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        for line in text_lines:
            print(line)
        print("# manifest " + json.dumps(run.manifest(), sort_keys=True))


def _poly_payload(polys, fmt):
    if fmt == "json":
        return [p.to_json() for p in polys]
    return [str(p) for p in polys]


def _rel_from_json(entry, n, d):
    """One relation as written by ``ideal gen``. Every variable must be a
    Pluecker index of [1, n] whose size is in d, with a positive integer
    exponent; coefficients are read as in tropical points."""
    terms = {}
    for item in entry:
        mono = []
        for e, x in item["monomial"]:
            elems = degrees.PlueckerIndex(n, tuple(e)).elems
            if len(elems) not in d:
                raise ValueError(f"variable {list(elems)} has a size outside --d")
            if weights.json_int(x, "an exponent") < 1:
                raise ValueError(f"exponent {x} of {list(elems)} is not positive")
            mono.append((elems, x))
        if tuple(mono) in terms:
            raise ValueError(f"monomial {item['monomial']} appears twice")
        terms[tuple(mono)] = weights.json_rational(item["coeff"], "a coefficient")
    return ideals.GradedPolynomial(terms)


def _guard_size(what, size):
    max_dim = _max_dim()
    if size > max_dim:
        raise InputError(f"{what} {size} exceeds PBWDEGEN_MAX_DIM={max_dim}")


def _guard_component(n, d, mu):
    _guard_size("component dimension", len(ideals.component_monomials(n, d, mu)))


# -- subcommand handlers -----------------------------------------------------


def cmd_weights(run, args):
    if args.action == "check":
        A = run.load_weights(args.weights)
        member = weights.check_cone_membership(A)
        info = {"n": A.n, "member": member, "interior": False}
        if member:
            sig = weights.face_signature(A)
            info["interior"] = weights.is_interior(A)
            info["tight_a"] = sorted(sig.tight_a)
            info["tight_b"] = sorted(list(p) for p in sig.tight_b)
        run.verdicts["member"] = member
        lines = [f"member={str(member).lower()}"]
        if member:
            lines.append(f"interior={str(info['interior']).lower()}")
        _emit(run, info, args.format, lines)
        return 0 if member else 1
    if args.n < 2:
        raise InputError(f"weights {args.action} needs --n >= 2")
    if args.action == "canonical":
        out = [
            {"label": label, "weights": A.to_json()}
            for label, A in weights.canonical_weight_systems(args.n)
        ]
        _emit(run, out, args.format, [e["label"] for e in out])
        return 0
    pts = weights.random_cone_points(args.n, args.count, seed=args.seed)
    out = [A.to_json() for A in pts]
    _emit(run, out, args.format, [json.dumps(e, sort_keys=True) for e in out])
    return 0


def cmd_degrees(run, args):
    A = run.load_weights(args.weights)
    d = _parse_sizes(args.d, A.n)
    run.params["d"] = list(d)
    _require_cone(A)
    out = degrees.grading_vector(A, d).to_json()
    _emit(run, out, args.format, [f"{k} {v}" for k, v in out.items()])
    return 0


def cmd_fflv(run, args):
    lam = _parse_lam(args.lam)
    run.params["lam"] = list(lam.coeffs)
    if args.action == "dim":
        dim = fflv.weyl_dim(lam)
        _emit(run, dim, args.format, [str(dim)])
        return 0
    _guard_size("Weyl dimension", fflv.weyl_dim(lam))
    patterns = fflv.enumerate_patterns(lam)
    if args.action == "count":
        _emit(run, len(patterns), args.format, [str(len(patterns))])
        return 0
    out = [T.to_json() for T in patterns]
    _emit(run, out, args.format, [json.dumps(e, sort_keys=True) for e in out])
    return 0


def cmd_tableaux(run, args):
    lam = _parse_lam(args.lam)
    run.params["lam"] = list(lam.coeffs)
    _guard_size("Weyl dimension", fflv.weyl_dim(lam))
    if args.action == "count":
        count = len(tableaux.enumerate_ssyt(lam))
        _emit(run, count, args.format, [str(count)])
        return 0
    ok = all(
        tableaux.tau(tableaux.zeta(T, lam)) == T
        for T in fflv.enumerate_patterns(lam)
    ) and all(
        tableaux.zeta(tableaux.tau(Y), lam) == Y
        for Y in tableaux.enumerate_ssyt(lam)
    )
    run.verdicts["roundtrip"] = ok
    _emit(run, ok, args.format, [f"roundtrip={str(ok).lower()}"])
    return 0 if ok else 1


def cmd_ideal(run, args):
    n = args.n
    d = _parse_sizes(args.d, n)
    run.params["n"] = n
    run.params["d"] = list(d)
    gens = ideals.plucker_relations(n, d)
    if args.action == "gen":
        _emit(
            run,
            _poly_payload(gens, "json"),
            args.format,
            _poly_payload(gens, "text"),
        )
        return 0
    mu = _parse_ints(args.mu, "--mu")
    if len(mu) != len(d):
        raise InputError("--mu must have one entry per size in --d")
    run.params["mu"] = list(mu)
    _guard_component(n, d, mu)
    A = run.load_weights(args.weights)
    _check_n(A, n, "--n")
    _require_cone(A)
    if args.action == "initial":
        g = degrees.grading_vector(A, d)
        cb = ideals.initial_component(gens, n, d, mu, g)
        polys = cb.row_polynomials()
        payload = {"rank": cb.rank, "rows": _poly_payload(polys, "json")}
        _emit(
            run,
            payload,
            args.format,
            [f"rank={cb.rank}"] + _poly_payload(polys, "text"),
        )
        return 0
    if args.action == "check-quadratic":
        ok = ideals.quadratic_generation_check(A, n, d, mu)
        run.verdicts["quadratic"] = ok
        _emit(run, ok, args.format, [f"quadratic={str(ok).lower()}"])
        return 0 if ok else 1
    B = run.load_weights(args.weights_b)
    _check_n(B, n, "--n")
    try:
        ok = ideals.face_degeneration_check(A, B, n, d, mu)
    except ValueError as exc:
        raise InputError(str(exc))
    run.verdicts["face_degeneration"] = ok
    _emit(run, ok, args.format, [f"face-degeneration={str(ok).lower()}"])
    return 0 if ok else 1


def cmd_rep(run, args):
    A = run.load_weights(args.weights) if args.weights else None
    if A is not None:
        _require_cone(A)
    if args.action == "psi-check":
        n = args.n
        d = _parse_sizes(args.d, n)
        run.params["n"] = n
        run.params["d"] = list(d)
        if A is not None:
            _check_n(A, n, "--n")
        if args.relations:
            data = run.load_json(args.relations)
            try:
                rels = [_rel_from_json(e, n, d) for e in data]
            except (KeyError, TypeError, ValueError) as exc:
                raise InputError(f"bad relation in {args.relations}: {exc!r}")
        else:
            rels = ideals.plucker_relations(n, d)
        ok = representations.psi_substitution_check(rels, n, d, A)
        run.verdicts["psi"] = ok
        _emit(run, ok, args.format, [f"psi={str(ok).lower()}"])
        return 0 if ok else 1
    lam = _parse_lam(args.lam)
    run.params["lam"] = list(lam.coeffs)
    if A is not None:
        _check_n(A, lam.n, "--lam")
    if args.action == "dim":
        max_dim = _max_dim()
        try:
            dim = representations.cyclic_module_dim(A, lam, max_dim=max_dim)
        except RuntimeError:
            raise InputError(
                f"cyclic module dimension exceeds PBWDEGEN_MAX_DIM={max_dim}"
            )
        _emit(run, dim, args.format, [str(dim)])
        return 0
    if A is None:
        raise InputError("this action needs --weights")
    if args.action == "fflv-check":
        ok = representations.fflv_basis_check(A, lam)
        run.verdicts["fflv_basis"] = ok
        _emit(run, ok, args.format, [f"fflv-basis={str(ok).lower()}"])
        return 0 if ok else 1
    try:
        ok = representations.annihilator_monomial_check(A, lam)
    except weights.NotInConeError as exc:
        raise InputError(str(exc))
    run.verdicts["annihilator"] = ok
    _emit(run, ok, args.format, [f"annihilator-monomial={str(ok).lower()}"])
    return 0 if ok else 1


def cmd_trop(run, args):
    if args.action == "map":
        A = run.load_weights(args.weights)
        _require_cone(A)
        out = tropical.map_h(A).to_json()
        _emit(run, out, args.format, [f"{k} {v}" for k, v in sorted(out["s"].items())])
        return 0
    point = run.load_point(args.point)
    if args.action == "check":
        ok, violations = tropical.cone_C_membership(point)
        run.verdicts["cone_C"] = ok
        payload = {"in_cone": ok, "violations": violations}
        lines = [f"in-cone={str(ok).lower()}"] + violations
        if ok and args.degree_bound is not None:
            d = tuple(range(1, point.n)) if args.d is None else _parse_sizes(args.d, point.n)
            run.params["degree_bound"] = args.degree_bound
            for mu in ideals.multidegrees_up_to(d, args.degree_bound):
                _guard_component(point.n, d, mu)
            no_mono = tropical.in_trop_necessary_check(point, d, args.degree_bound)
            run.verdicts["bounded_no_monomial"] = no_mono
            payload["no_monomial_up_to_bound"] = no_mono
            if no_mono:
                lines.append(f"no monomial found up to degree {args.degree_bound}")
            else:
                lines.append(f"monomial found at degree <= {args.degree_bound}")
            ok = ok and no_mono
        _emit(run, payload, args.format, lines)
        return 0 if ok else 1
    try:
        w = tropical.maximality_witness(point)
    except ValueError as exc:
        raise InputError(str(exc))
    if w is None:
        _emit(run, None, args.format, ["no violated inequality"])
    else:
        _emit(run, w.to_json(), args.format, [str(w)])
    return 0


def cmd_suite(run, args):
    if args.n is not None and args.n < 2:
        raise InputError(f"suite --n must be at least 2, got {args.n}")
    results = suite.run_suite(cap=args.n)
    lines = []
    all_ok = True
    for name, ok, detail in results:
        run.verdicts[name] = ok
        all_ok = all_ok and ok
        lines.append(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    payload = [
        {"check": name, "ok": ok, "detail": detail} for name, ok, detail in results
    ]
    _emit(run, payload, args.format, lines)
    return 0 if all_ok else 1


# -- argument parsing --------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pbwdegen",
        description="Weighted PBW degenerations of type-A flag varieties.",
    )
    parser.add_argument("--format", choices=("json", "text"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("weights", help="cone membership and reference systems")
    p.add_argument("action", choices=("check", "canonical", "random"))
    p.add_argument("--weights", "--file", dest="weights")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("degrees", help="grading vector of a weight system")
    p.add_argument("--weights", required=True)
    p.add_argument("--d", required=True)
    p.set_defaults(func=cmd_degrees)

    p = sub.add_parser("fflv", help="pattern polytope enumeration")
    p.add_argument("action", choices=("count", "patterns", "dim"))
    p.add_argument("--lam", required=True)
    p.set_defaults(func=cmd_fflv)

    p = sub.add_parser("tableaux", help="PBW semistandard tableaux")
    p.add_argument("action", choices=("count", "roundtrip"))
    p.add_argument("--lam", required=True)
    p.set_defaults(func=cmd_tableaux)

    p = sub.add_parser("ideal", help="Pluecker ideal components")
    p.add_argument(
        "action",
        choices=("gen", "initial", "check-quadratic", "check-face-degeneration"),
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", required=True)
    p.add_argument("--mu")
    p.add_argument("--weights")
    p.add_argument("--weights-b")
    p.set_defaults(func=cmd_ideal)

    p = sub.add_parser("rep", help="degenerate representation checks")
    p.add_argument(
        "action", choices=("dim", "fflv-check", "annihilator-check", "psi-check")
    )
    p.add_argument("--lam")
    p.add_argument("--weights")
    p.add_argument("--n", type=int)
    p.add_argument("--d")
    p.add_argument("--relations")
    p.set_defaults(func=cmd_rep)

    p = sub.add_parser("trop", help="tropical cone and certificates")
    p.add_argument("action", choices=("map", "check", "witness"))
    p.add_argument("--weights")
    p.add_argument("--point")
    p.add_argument("--d")
    p.add_argument("--degree-bound", type=int)
    p.set_defaults(func=cmd_trop)

    p = sub.add_parser("suite", help="run the full verification battery")
    p.add_argument("--n", type=int, default=None, help="cap the rank used by the checks")
    p.set_defaults(func=cmd_suite)

    return parser


def _validate(args):
    if args.command == "weights" and args.action == "check" and not args.weights:
        raise InputError("weights check needs --weights")
    if args.command == "ideal" and args.action != "gen" and not args.mu:
        raise InputError(f"ideal {args.action} needs --mu")
    if args.command == "ideal" and args.action in (
        "initial",
        "check-quadratic",
        "check-face-degeneration",
    ):
        if not args.weights:
            raise InputError(f"ideal {args.action} needs --weights")
        if args.action == "check-face-degeneration" and not args.weights_b:
            raise InputError("check-face-degeneration needs --weights-b")
    if args.command == "rep":
        if args.action == "psi-check":
            if args.n is None or not args.d:
                raise InputError("rep psi-check needs --n and --d")
        elif not args.lam:
            raise InputError(f"rep {args.action} needs --lam")
    if args.command == "trop":
        if args.action == "map" and not args.weights:
            raise InputError("trop map needs --weights")
        if args.action in ("check", "witness") and not args.point:
            raise InputError(f"trop {args.action} needs --point")


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    run = Run(["pbwdegen"] + argv)
    try:
        _validate(args)
        return args.func(run, args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
