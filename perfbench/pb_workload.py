"""One round of a benchmark workload, in a fresh process.

The harness (run.py) starts this script once per round and sends a JSON
spec on stdin: the workload name, the source directory of the package, the
inputs it generated from the seed, and whether to trace.  The script
imports the package, parses the bundled pencils, runs the workload's
operations back to back through the public API, and prints one JSON line:
per-operation seconds and outcomes, the outputs the harness checks, the
process's peak resident memory and, when tracing, the per-layer summary.

With ``--setup`` it only imports the package and parses the pencils, so
that the harness can time set-up on its own.
"""

import json
import os
import resource
import sys
import time
from fractions import Fraction

PENCILS = ("thm_example", "prop_q3", "cor_easy")


def _setup(src):
    sys.path.insert(0, src)
    from symmetroid.cli import load_pencil   # imports the whole package
    return {name: load_pencil(name)[0] for name in PENCILS}


# ---------------------------------------------------------------------------
# operations: each returns (ok, output); output is JSON-able


def _op_wa_finite(pencils, inputs):
    from symmetroid import certify_wa_failure
    cert = certify_wa_failure(pencils["prop_q3"], 3)
    return True, cert.as_json()


def _op_padic_evaluate(pencils, inputs):
    # Passes when the point evaluates to 1/2 or the library refuses with
    # PrecisionError; the rank-5 integer representative gives 0 instead.
    from symmetroid import evaluate_invariant, lift_to_y
    from symmetroid.brauer_eval import PrecisionError
    P = pencils["prop_q3"]
    try:
        points = lift_to_y(P, (1, 0, 0, 81, 0), 3, padic_precision=6)
        invs = [evaluate_invariant(P, y) for y in points]
    except PrecisionError as exc:
        return True, {"precision_error": str(exc)}
    ok = bool(invs) and all(v == Fraction(1, 2) for v in invs)
    return ok, {"invariants": [str(v) for v in invs]}


def _poly_json(m):
    return [[list(e), c] for e, c in sorted(m.terms.items())]


def _op_alpha(name):
    def op(pencils, inputs):
        from symmetroid import alpha_symbol
        sym = alpha_symbol(pencils[name])
        return True, {"pencil": name,
                      "minors": [_poly_json(m) for m in sym.minors],
                      "basis_change": sym.basis_change,
                      "witness_point": list(sym.witness_point),
                      "witness_prime": sym.witness_prime}
    return op


def _op_v3(name, d_max):
    def op(pencils, inputs):
        from symmetroid import (Inconclusive, empty_all_primes,
                                rank_le2_minor_ideal)
        cert = empty_all_primes(rank_le2_minor_ideal(pencils[name]),
                                d_max=d_max)
        return True, {"pencil": name, "d_max": d_max,
                      "inconclusive": isinstance(cert, Inconclusive),
                      "result": cert.as_json()}
    return op


def _op_real_point(seed):
    def op(pencils, inputs):
        from symmetroid import find_real_point_with_invariant
        y = find_real_point_with_invariant(pencils["cor_easy"], 0, seed=seed)
        out = y.as_json()
        out["seed"] = seed
        out["signature"] = list(y.signature) if y.signature else None
        return True, out
    return op


def _op_monte_carlo(pencils, inputs):
    from symmetroid import monte_carlo_density
    mc = inputs["monte_carlo"]
    rep = monte_carlo_density(mc["height"], mc["cutoff"], mc["samples"],
                              seed=mc["seed"])
    return True, rep.as_json()


def _op_sp(name, p):
    def op(pencils, inputs):
        from symmetroid import sp_member
        return True, dict(sp_member(pencils[name], p).as_json(),
                          pencil=name, p=p)
    return op


def _op_census(pencils, inputs):
    from symmetroid import census_bp
    p = inputs["census_p"]
    return True, {"p": p, "count": census_bp(p, workers=1)}


def operations(workload, inputs):
    """The (group, operation) list of one round, in order."""
    if workload == "wa-certify":
        return [("wa_finite", _op_wa_finite),
                ("padic_evaluate", _op_padic_evaluate)]
    if workload == "symbol-lattice":
        ops = [("alpha_symbol", _op_alpha(name)) for name in PENCILS]
        ops += [("v3_verdict", _op_v3(name, d))
                for name, d in inputs["v3"]]
        ops += [("real_point", _op_real_point(s))
                for s in inputs["real_point_seeds"]]
        return ops
    if workload == "sieve":
        ops = [("monte_carlo", _op_monte_carlo)]
        ops += [("sp_scan", _op_sp(name, p)) for name in PENCILS
                for p in inputs["sp_primes"]]
        ops += [("census", _op_census)]
        return ops
    raise ValueError("unknown workload %r" % workload)


def _extra_outputs(workload, pencils, inputs):
    """Untimed library outputs that only the harness's checks use: S_p
    verdicts on the seeded random frames."""
    if workload != "sieve":
        return {}
    from symmetroid import Pencil, QuadricForm, sp_member
    out = []
    for frame in inputs["frames"]:
        P = Pencil([QuadricForm(row) for row in frame])
        out.append({p: sp_member(P, p).as_json()
                    for p in inputs["frame_primes"]})
    return {"frames": out}


# ---------------------------------------------------------------------------
# tracing


def _cells_2d(M, *args, **kwargs):
    if hasattr(M, "shape"):
        return int(M.shape[0]) * int(M.shape[1])
    return len(M) * (len(M[0]) if len(M) else 0)


def _cells_sparse(rows, ncols, *args, **kwargs):
    return len(rows) * ncols


LAYER_TARGETS = (
    ("linalg", "fp_rank_sparse_dense", _cells_sparse),
    ("linalg", "fp_pivot_rows", _cells_sparse),
    ("linalg", "fp_rank", _cells_2d),
    ("linalg", "det_exact_crt", _cells_2d),
    ("linalg", "smith_divisors", _cells_2d),
    ("nullstellensatz", "empty_over_fpbar", None),
    ("nullstellensatz", "empty_bihomogeneous", None),
    ("nullstellensatz", "empty_all_primes", None),
    ("pencil", "regularity_certificate", None),
    ("pencil", "singular_locus_ideal", None),
    ("pencil", "alpha_symbol", None),
    ("pencil", "rank_le2_minor_ideal", None),
    ("polys", "poly_matrix_det", None),
    ("roots", "isolate_real_roots", None),
    ("roots", "refine_root", None),
    ("brauer_eval", "find_real_point_with_invariant", None),
    ("brauer_eval", "evaluate_invariant", None),
    ("quadform", "classify", None),
    ("quadform", "has_smooth_point_qp", None),
    ("quadform", "has_smooth_point_fq", None),
    ("localfields", "hilbert_symbol", None),
    ("density", "monte_carlo_density", None),
    ("density", "sp_member", None),
    ("density", "census_bp", None),
)


def install_tracer():
    import importlib

    from pb_tracer import Tracer
    from symmetroid.polys import MultiPoly

    tracer = Tracer("symmetroid")
    for mod_name, attr, cells in LAYER_TARGETS:
        module = importlib.import_module("symmetroid." + mod_name)
        tracer.wrap(module, attr, cells=cells)
    tracer.wrap_method(MultiPoly, "evaluate", "polys.MultiPoly.evaluate")
    return tracer


# ---------------------------------------------------------------------------


def run_round(spec):
    pencils = _setup(spec["src"])
    tracer = install_tracer() if spec["trace"] else None
    inputs = spec["inputs"]
    ops = []
    round_s = 0.0
    for group, op in operations(spec["workload"], inputs):
        t0 = time.perf_counter()
        try:
            if tracer is None:
                ok, output = op(pencils, inputs)
            else:
                with tracer.span("op." + group):
                    ok, output = op(pencils, inputs)
            error = None
        except Exception as exc:  # a failed operation is counted, not fatal
            ok, output, error = False, None, "%s: %s" % (
                type(exc).__name__, exc)
        dt = time.perf_counter() - t0
        round_s += dt
        ops.append({"group": group, "ok": ok, "seconds": dt,
                    "output": output, "error": error})
    result = {"round_s": round_s, "ops": ops}
    if tracer is not None:
        tracer.unwrap()
        result["layers"] = tracer.summary()
        if spec.get("trace_path"):
            tracer.dump(spec["trace_path"],
                        meta={"workload": spec["workload"],
                              "seed": spec["seed"]})
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["extra"] = _extra_outputs(spec["workload"], pencils, inputs)
    return result


def main():
    if "--setup" in sys.argv:
        _setup(sys.argv[sys.argv.index("--setup") + 1])
        return 0
    spec = json.loads(sys.stdin.read())
    print(json.dumps(run_round(spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
