"""Command-line front end.

Subcommands parse a pencil file (or a bundled fixture name), dispatch to
the engines, and emit a schema-versioned JSON report on stdout (or --out),
with a one-line human summary on stderr.  Exit codes: 0 success, 2 for an
honest "inconclusive", 1 for errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from importlib import resources

from . import reports

BUILTIN_PENCILS = ("thm_example", "prop_q3", "cor_easy")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INCONCLUSIVE = 2


def load_pencil(spec):
    from .pencil import parse_pencil_file, parse_pencil_text

    if os.path.exists(spec):
        return parse_pencil_file(spec), spec
    name = spec[len("builtin:"):] if spec.startswith("builtin:") else spec
    if name.endswith(".pencil"):
        name = name[:-len(".pencil")]
    if name in BUILTIN_PENCILS:
        text = resources.files("symmetroid.data").joinpath(
            name + ".pencil").read_text()
        return parse_pencil_text(text), "builtin:" + name
    raise FileNotFoundError("no pencil file %r (builtins: %s)"
                            % (spec, ", ".join(BUILTIN_PENCILS)))


def _parse_point(s):
    parts = s.replace(",", " ").split()
    if len(parts) != 5:
        raise ValueError("a parameter point needs 5 coordinates")
    return [Fraction(x) for x in parts]


def build_parser():
    ap = argparse.ArgumentParser(
        prog="symmetroid",
        description="Exact arithmetic for pencils of quadrics in P^4: "
                    "Brauer symbols, local invariants, emptiness "
                    "certificates, sieve densities.")
    ap.add_argument("--workers", type=int, default=None,
                    help="worker count (default: SYMMETROID_WORKERS or 1)")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    def add(name, help_, pencil=True):
        p = sub.add_parser(name, help=help_)
        if pencil:
            p.add_argument("pencil", help="pencil file or builtin name")
        p.add_argument("--out", help="write the JSON report here")
        p.add_argument("--pretty", action="store_true",
                       help="indent the JSON report")
        return p

    p = add("classify", "rank/signature data of the generators or a member")
    p.add_argument("--t", help="parameter point, e.g. '1,0,0,0,0'")
    p.add_argument("--field", default="R",
                   help="Q, R, or a prime power q for F_q")

    p = add("alpha-symbol", "quaternion representative of the Brauer class")
    p.add_argument("--seed", type=int, default=0)

    p = add("evaluate", "lift a point of H and evaluate the invariant")
    p.add_argument("--t", required=True, help="parameter point on H")
    p.add_argument("--place", required=True,
                   help="a prime or 'inf' for the real place")

    p = add("certify-wa", "certify a weak-approximation obstruction")
    p.add_argument("--strategy", required=True, choices=["real", "finite"])
    p.add_argument("--prime", type=int,
                   help="the finite place (strategy=finite)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--reg-prime", type=int, default=None,
                   help="witness prime for the regularity certificate")

    p = add("regularity", "certify regularity via a special fiber")
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--dmax", type=int, default=8,
                   help="degree cap for the diagonal-avoidance test")
    p.add_argument("--dmax-bi", type=int, default=4,
                   help="bidegree cap for the singular-locus test")

    p = add("v3-test", "all-primes emptiness of the rank<=2 locus meet")
    p.add_argument("--dmax", type=int, default=12)
    p.add_argument("--no-saturate", action="store_true",
                   help="skip the 2-saturation of the minor lattice")

    p = add("sp-scan", "scan S_p membership for primes up to a cutoff")
    p.add_argument("--prime", type=int, help="scan a single prime")
    p.add_argument("--cutoff", type=int,
                   help="scan all primes <= cutoff; a cutoff past the "
                   "largest prime the scans accept is refused before any "
                   "prime is scanned")

    p = add("density-bound", "certified Euler-product lower bound",
            pencil=False)
    p.add_argument("--cutoff", type=int, default=100)

    p = add("monte-carlo", "random-frame density experiment", pencil=False)
    p.add_argument("--height", type=int, default=10)
    p.add_argument("--cutoff", type=int, default=20)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)

    p = add("census", "exhaustive pointless-quadric census", pencil=False)
    p.add_argument("--p", type=int, required=True, choices=[2, 3])

    p = add("x-point", "rational point of the companion X-variety")
    p.add_argument("--t", required=True, help="singular member parameter")
    p.add_argument("--v", help="kernel vector (found automatically if "
                               "omitted)")
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for flag errors; 2 means "inconclusive"
        # in our contract, so remap
        raise SystemExit(EXIT_ERROR if exc.code not in (0, None)
                         else exc.code)
    try:
        return _dispatch(args)
    except BrokenPipeError:
        raise
    except Exception as exc:  # engine errors -> exit 1 with context
        report = reports.make_report(args.subcommand, {}, str(exc),
                                     status="error")
        reports.emit(report, getattr(args, "out", None),
                     getattr(args, "pretty", False))
        reports.summary("error: %s" % exc)
        return EXIT_ERROR


def _dispatch(args):
    from .nullstellensatz import Inconclusive

    name = args.subcommand
    if name == "density-bound":
        from .density import product_lower_bound
        rep = product_lower_bound(args.cutoff)
        report = reports.make_report(name, {"cutoff": args.cutoff},
                                     rep.as_json())
        reports.emit(report, args.out, args.pretty)
        reports.summary("density lower bound: %.6f (cutoff %d)"
                        % (float(rep.final_bound), args.cutoff))
        return EXIT_OK

    if name == "monte-carlo":
        from .density import monte_carlo_density
        rep = monte_carlo_density(args.height, args.cutoff, args.samples,
                                  seed=args.seed)
        report = reports.make_report(
            name, {"height": args.height, "cutoff": args.cutoff,
                   "samples": args.samples, "seed": args.seed},
            rep.as_json())
        reports.emit(report, args.out, args.pretty)
        if rep.estimate is not None:
            reports.summary("pass fraction %.4f vs product %.4f"
                            % (float(rep.estimate),
                               float(rep.reference_product)))
        else:
            reports.summary("empty report (0 samples)")
        return EXIT_OK

    if name == "census":
        from .density import census_bp, pointless_quadric_count
        count = census_bp(args.p, progress=sys.stderr, workers=args.workers)
        formula = pointless_quadric_count(args.p)
        report = reports.make_report(
            name, {"p": args.p},
            {"census": count, "formula": formula,
             "agree": count == formula})
        reports.emit(report, args.out, args.pretty)
        reports.summary("census #B_%d = %d (formula %d)"
                        % (args.p, count, formula))
        return EXIT_OK if count == formula else EXIT_ERROR

    P, source = load_pencil(args.pencil)
    inputs = {"pencil": source, "lines": P.to_lines()}

    if name == "classify":
        from .quadform import classify
        field = args.field
        if field not in ("Q", "R"):
            field = int(field)
        if args.t:
            t = _parse_point(args.t)
            Q = P.member(t)
            result = {"member": [str(x) for x in t],
                      "quadric": Q.to_string(),
                      "classification": classify(Q, field).as_json(),
                      "det": str(P.det_at(t))}
        else:
            result = {"generators": [
                {"quadric": Q.to_string(),
                 "classification": classify(Q, field).as_json()}
                for Q in P.quadrics]}
        report = reports.make_report(name, {**inputs, "field": str(field)},
                                     result)
        reports.emit(report, args.out, args.pretty)
        reports.summary("classified over %s" % field)
        return EXIT_OK

    if name == "alpha-symbol":
        from .pencil import alpha_symbol
        sym = alpha_symbol(P, seed=args.seed)
        report = reports.make_report(name, inputs, sym.as_json())
        reports.emit(report, args.out, args.pretty)
        reports.summary("alpha symbol computed; basis change: %s"
                        % ("none" if sym.basis_change is None else "yes"))
        return EXIT_OK

    if name == "evaluate":
        from .brauer_eval import evaluate_invariant, lift_to_y
        from .localfields import normalize_place
        t = _parse_point(args.t)
        v = normalize_place(args.place)
        points = lift_to_y(P, t, v)
        result = {"t": [str(x) for x in t],
                  "place": "inf" if v == "inf" else v,
                  "lifts": len(points),
                  "points": []}
        for y in points:
            inv = evaluate_invariant(P, y)
            d = y.as_json()
            d["invariant"] = str(inv)
            result["points"].append(d)
        report = reports.make_report(name, inputs, result)
        reports.emit(report, args.out, args.pretty)
        reports.summary("lifts: %d%s" % (
            len(points),
            "; invariants " + ", ".join(p["invariant"]
                                        for p in result["points"])
            if points else " (discriminant not a square at the place)"))
        return EXIT_OK

    if name == "certify-wa":
        from .brauer_eval import certify_wa_failure
        from .pencil import regularity_certificate
        if args.strategy == "finite":
            if not args.prime:
                raise ValueError("--strategy finite needs --prime")
            strategy = args.prime
        else:
            strategy = "real"
        reg = None
        if args.reg_prime:
            reg = regularity_certificate(P, args.reg_prime)
        cert = certify_wa_failure(P, strategy, regularity=reg,
                                  seed=args.seed)
        report = reports.make_report(
            name, {**inputs, "strategy": args.strategy,
                   "prime": args.prime}, cert.as_json())
        reports.emit(report, args.out, args.pretty)
        reports.summary(
            "weak approximation obstructed at %s (invariants 0 and 1/2)"
            % ("the real place" if cert.place == "inf" else
               "p=%s" % cert.place))
        return EXIT_OK

    if name == "regularity":
        from .pencil import regularity_certificate
        cert = regularity_certificate(P, args.prime,
                                      d_max_diag=args.dmax,
                                      d_max_bi=(args.dmax_bi, args.dmax_bi))
        report = reports.make_report(
            name, {**inputs, "prime": args.prime}, cert.as_json(),
            status="ok" if cert.certified else "inconclusive")
        reports.emit(report, args.out, args.pretty)
        reports.summary("regularity at p=%d: %s" % (
            args.prime, "certified" if cert.certified else "inconclusive"))
        return EXIT_OK if cert.certified else EXIT_INCONCLUSIVE

    if name == "v3-test":
        from .nullstellensatz import empty_all_primes
        from .pencil import rank_le2_minor_ideal
        ideal = rank_le2_minor_ideal(P)
        cert = empty_all_primes(ideal,
                                saturate_at_2=not args.no_saturate,
                                d_max=args.dmax)
        ok = not isinstance(cert, Inconclusive)
        report = reports.make_report(
            name, {**inputs, "dmax": args.dmax,
                   "saturate_at_2": not args.no_saturate},
            cert.as_json(), status="ok" if ok else "inconclusive")
        reports.emit(report, args.out, args.pretty)
        if ok:
            verdict = "certified for all primes (degree %s)" % cert.degree
        elif cert.witness:
            verdict = ("inconclusive (common zero %s mod %d)"
                       % (cert.witness["point"], cert.witness["prime"]))
        else:
            verdict = "inconclusive"
        reports.summary("V3 avoidance: %s" % verdict)
        return EXIT_OK if ok else EXIT_INCONCLUSIVE

    if name == "sp-scan":
        from .density import _check_prime, primes_below, sp_member
        if args.prime:
            ps = [args.prime]
        elif args.cutoff:
            ps = primes_below(args.cutoff + 1)
            if ps:
                _check_prime(ps[-1])
        else:
            raise ValueError("sp-scan needs --prime or --cutoff")
        result = {}
        any_member = False
        for p in ps:
            res = sp_member(P, p)
            result[str(p)] = res.as_json()
            any_member = any_member or res.member
        report = reports.make_report(name, {**inputs, "primes": ps}, result)
        reports.emit(report, args.out, args.pretty)
        reports.summary("S_p membership: %s" % (
            "none of the scanned primes" if not any_member else "member at "
            + ", ".join(p for p, r in result.items() if r["member"])))
        return EXIT_OK

    if name == "x-point":
        from .pencil import x_point_from_singular_member
        t = _parse_point(args.t)
        v = _parse_point(args.v) if args.v else None
        xp = x_point_from_singular_member(P, t, v=v)
        result = {"t": [int(x) for x in xp["t"]],
                  "v": [int(x) for x in xp["v"]],
                  "w": [int(x) for x in xp["w"]],
                  "degenerate": xp["degenerate"]}
        report = reports.make_report(name, inputs, result)
        reports.emit(report, args.out, args.pretty)
        reports.summary("X-point pair v=%s w=%s" % (result["v"], result["w"]))
        return EXIT_OK

    raise ValueError("unknown subcommand %r" % name)


if __name__ == "__main__":
    sys.exit(main())
