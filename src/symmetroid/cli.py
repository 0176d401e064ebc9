"""Command-line front end.

Subcommands parse a pencil file (or a bundled fixture name), dispatch to
the engines, and emit a schema-versioned JSON report on stdout (or --out),
with a one-line human summary on stderr.  Exit codes: 0 success, 2 for an
honest "inconclusive", 1 for errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from importlib import resources

from . import density
from .brauer_eval import certify_wa_failure, evaluate_invariant, lift_to_y
from .localfields import normalize_place
from .nullstellensatz import Inconclusive, empty_all_primes
from .pencil import (alpha_symbol, parse_pencil_file, parse_pencil_text,
                     rank_le2_minor_ideal, regularity_certificate,
                     x_point_from_singular_member)
from .quadform import classify

BUILTIN_PENCILS = ("thm_example", "prop_q3", "cor_easy")
SCHEMA_VERSION = "symmetroid-report/1"

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INCONCLUSIVE = 2
# the report's status ("ok" | "inconclusive" | "error") and its exit code
_EXIT = {"ok": EXIT_OK, "inconclusive": EXIT_INCONCLUSIVE, "error": EXIT_ERROR}


def load_pencil(spec):
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
    ap.add_argument("--workers", type=int, default=1,
                    help="worker count (default: 1)")
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
    inputs = {}
    try:
        result, status, line = _dispatch(args, inputs)
    except BrokenPipeError:
        raise
    except Exception as exc:  # engine errors -> exit 1 with the inputs
        result, status, line = str(exc), "error", "error: %s" % exc
    report = {"schema": SCHEMA_VERSION, "subcommand": args.subcommand,
              "status": status, "inputs": inputs, "result": result}
    text = json.dumps(report, indent=2 if args.pretty else None,
                      sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    sys.stderr.write(line.rstrip() + "\n")
    return _EXIT[status]


def _dispatch(args, inputs):
    """Run the subcommand of ``args``: its report's (result, status) and
    the summary line.  The report's inputs go into the dict ``inputs``
    before the engine runs, so that an error report has them too."""
    name = args.subcommand
    if name == "density-bound":
        inputs["cutoff"] = args.cutoff
        rep = density.product_lower_bound(args.cutoff)
        return (rep.as_json(), "ok",
                "density lower bound: %.6f (cutoff %d)"
                % (float(rep.final_bound), args.cutoff))

    if name == "monte-carlo":
        inputs.update(height=args.height, cutoff=args.cutoff,
                      samples=args.samples, seed=args.seed)
        rep = density.monte_carlo_density(args.height, args.cutoff,
                                          args.samples, seed=args.seed)
        return (rep.as_json(), "ok",
                "empty report (0 samples)" if rep.estimate is None else
                "pass fraction %.4f vs product %.4f"
                % (float(rep.estimate), float(rep.reference_product)))

    if name == "census":
        inputs["p"] = args.p
        count = density.census_bp(args.p, progress=sys.stderr,
                                  workers=args.workers)
        formula = density.pointless_quadric_count(args.p)
        return ({"census": count, "formula": formula,
                 "agree": count == formula},
                "ok" if count == formula else "error",
                "census #B_%d = %d (formula %d)" % (args.p, count, formula))

    P, source = load_pencil(args.pencil)
    inputs.update(pencil=source, lines=P.to_lines())

    if name == "classify":
        field = args.field
        if field not in ("Q", "R"):
            field = int(field)
        inputs["field"] = str(field)
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
        return result, "ok", "classified over %s" % field

    if name == "alpha-symbol":
        sym = alpha_symbol(P, seed=args.seed)
        return (sym.as_json(), "ok",
                "alpha symbol computed; basis change: %s"
                % ("none" if sym.basis_change is None else "yes"))

    if name == "evaluate":
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
        return (result, "ok", "lifts: %d%s" % (
            len(points),
            "; invariants " + ", ".join(p["invariant"]
                                        for p in result["points"])
            if points else " (discriminant not a square at the place)"))

    if name == "certify-wa":
        inputs.update(strategy=args.strategy, prime=args.prime)
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
        return (cert.as_json(), "ok",
                "weak approximation obstructed at %s (invariants 0 and 1/2)"
                % ("the real place" if cert.place == "inf" else
                   "p=%s" % cert.place))

    if name == "regularity":
        inputs["prime"] = args.prime
        cert = regularity_certificate(P, args.prime,
                                      d_max_diag=args.dmax,
                                      d_max_bi=(args.dmax_bi, args.dmax_bi))
        status = "ok" if cert.certified else "inconclusive"
        return (cert.as_json(), status,
                "regularity at p=%d: %s" % (
                    args.prime, "certified" if cert.certified else status))

    if name == "v3-test":
        inputs.update(dmax=args.dmax, saturate_at_2=not args.no_saturate)
        ideal = rank_le2_minor_ideal(P)
        cert = empty_all_primes(ideal,
                                saturate_at_2=not args.no_saturate,
                                d_max=args.dmax)
        ok = not isinstance(cert, Inconclusive)
        if ok:
            verdict = "certified for all primes (degree %s)" % cert.degree
        elif cert.witness:
            verdict = ("inconclusive (common zero %s mod %d)"
                       % (cert.witness["point"], cert.witness["prime"]))
        else:
            verdict = "inconclusive"
        return (cert.as_json(), "ok" if ok else "inconclusive",
                "V3 avoidance: %s" % verdict)

    if name == "sp-scan":
        if args.prime:
            ps = inputs["primes"] = [args.prime]
        elif args.cutoff:
            ps = inputs["primes"] = density.primes_below(args.cutoff + 1)
            if ps:
                density._check_prime(ps[-1])
        else:
            raise ValueError("sp-scan needs --prime or --cutoff")
        result = {str(p): density.sp_member(P, p).as_json() for p in ps}
        members = [p for p, r in result.items() if r["member"]]
        return (result, "ok",
                "S_p membership: %s" % (
                    "member at " + ", ".join(members) if members
                    else "none of the scanned primes"))

    if name == "x-point":
        t = _parse_point(args.t)
        v = _parse_point(args.v) if args.v else None
        xp = x_point_from_singular_member(P, t, v=v)
        result = {"t": [int(x) for x in xp["t"]],
                  "v": [int(x) for x in xp["v"]],
                  "w": [int(x) for x in xp["w"]],
                  "degenerate": xp["degenerate"]}
        return (result, "ok",
                "X-point pair v=%s w=%s" % (result["v"], result["w"]))

    raise ValueError("unknown subcommand %r" % name)


if __name__ == "__main__":
    sys.exit(main())
