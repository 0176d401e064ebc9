"""Benchmark of symmetroid's three verdict paths.

    python3 perfbench/run.py --workload {wa-certify,symbol-lattice,sieve}
                             --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; the package is imported from ./src.
Set-up is timed first, in separate fresh processes.  Then the workload runs
whole rounds, each in a fresh process, until S seconds have passed: within a
round one caller runs the operations back to back (a closed loop).  Every
output is checked by pb_oracles, which recomputes it apart from the
program.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced round with ``--trace 1``.
See README.md in this directory for the workloads and metrics.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "pb_workload.py")
OUT_DIR = os.path.join(HERE, "out")

WORKLOADS = ("wa-certify", "symbol-lattice", "sieve")
SETUP_SAMPLES = 7
DEADLINE_S = 170.0          # a run must end within 180 s
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
# one BLAS thread in this process (the checks) and in every child
os.environ.update({var: "1" for var in THREAD_VARS})
os.environ.update({"SYMMETROID_WORKERS": "1", "PYTHONHASHSEED": "0"})

# per-layer metrics: (metric name, span name, summary field)
LAYER_METRICS = (
    ("linalg.fp_rank_sparse_dense.s", "linalg.fp_rank_sparse_dense", "s"),
    ("linalg.fp_rank_sparse_dense.cells", "linalg.fp_rank_sparse_dense",
     "cells"),
    ("linalg.fp_pivot_rows.s", "linalg.fp_pivot_rows", "s"),
    ("linalg.fp_pivot_rows.calls", "linalg.fp_pivot_rows", "calls"),
    ("linalg.det_exact_crt.s", "linalg.det_exact_crt", "s"),
    ("linalg.det_exact_crt.calls", "linalg.det_exact_crt", "calls"),
    ("linalg.smith_divisors.s", "linalg.smith_divisors", "s"),
    ("linalg.fp_rank.s", "linalg.fp_rank", "s"),
    ("linalg.fp_rank.calls", "linalg.fp_rank", "calls"),
    ("nullstellensatz.empty_bihomogeneous.self_s",
     "nullstellensatz.empty_bihomogeneous", "self_s"),
    ("nullstellensatz.empty_over_fpbar.self_s",
     "nullstellensatz.empty_over_fpbar", "self_s"),
    ("nullstellensatz.empty_all_primes.self_s",
     "nullstellensatz.empty_all_primes", "self_s"),
    ("pencil.regularity_certificate.s", "pencil.regularity_certificate",
     "s"),
    ("pencil.singular_locus_ideal.s", "pencil.singular_locus_ideal", "s"),
    ("pencil.alpha_symbol.self_s", "pencil.alpha_symbol", "self_s"),
    ("pencil.rank_le2_minor_ideal.s", "pencil.rank_le2_minor_ideal", "s"),
    ("polys.poly_matrix_det.s", "polys.poly_matrix_det", "s"),
    ("polys.poly_matrix_det.calls", "polys.poly_matrix_det", "calls"),
    ("polys.MultiPoly.evaluate.s", "polys.MultiPoly.evaluate", "s"),
    ("polys.MultiPoly.evaluate.calls", "polys.MultiPoly.evaluate", "calls"),
    ("roots.isolate_real_roots.s", "roots.isolate_real_roots", "s"),
    ("roots.isolate_real_roots.calls", "roots.isolate_real_roots", "calls"),
    ("roots.refine_root.s", "roots.refine_root", "s"),
    ("roots.refine_root.calls", "roots.refine_root", "calls"),
    ("brauer_eval.find_real_point_with_invariant.self_s",
     "brauer_eval.find_real_point_with_invariant", "self_s"),
    ("brauer_eval.evaluate_invariant.s", "brauer_eval.evaluate_invariant",
     "s"),
    ("brauer_eval.evaluate_invariant.calls",
     "brauer_eval.evaluate_invariant", "calls"),
    ("quadform.classify.s", "quadform.classify", "s"),
    ("quadform.classify.calls", "quadform.classify", "calls"),
    ("quadform.has_smooth_point_qp.s", "quadform.has_smooth_point_qp", "s"),
    ("quadform.has_smooth_point_fq.s", "quadform.has_smooth_point_fq", "s"),
    ("quadform.has_smooth_point_fq.calls", "quadform.has_smooth_point_fq",
     "calls"),
    ("localfields.hilbert_symbol.calls", "localfields.hilbert_symbol",
     "calls"),
    ("density.monte_carlo_density.self_s", "density.monte_carlo_density",
     "self_s"),
    ("density.sp_member.s", "density.sp_member", "s"),
    ("density.sp_member.calls", "density.sp_member", "calls"),
    ("density.census_bp.s", "density.census_bp", "s"),
)
UNITS = {"s": "s", "self_s": "s", "calls": "count", "cells": "count"}
OP_METRICS = (("wa_finite_s", "wa_finite"), ("alpha_symbol_s", "alpha_symbol"),
              ("v3_verdict_s", "v3_verdict"), ("real_point_s", "real_point"),
              ("sp_scan_s", "sp_scan"))


def make_inputs(workload, seed):
    """(inputs sent to the workload, data only the checks use), both a
    function of the workload and the seed alone."""
    rng = random.Random("%s:%d" % (workload, seed))
    if workload == "wa-certify":
        return {}, {}
    if workload == "symbol-lattice":
        inputs = {"v3": [["thm_example", 12], ["prop_q3", 5]],
                  "real_point_seeds": [rng.randrange(1 << 30)
                                       for _ in range(16)]}
        points = [[rng.randint(-5, 5) for _ in range(5)] for _ in range(3)]
        return inputs, {"points": points}
    if workload == "sieve":
        from pb_oracles import primes_upto, rank_mod_p
        frames = []
        while len(frames) < 4:
            F = [[rng.randint(-10, 10) for _ in range(15)] for _ in range(5)]
            if rank_mod_p(F, 1000003) == 5:   # independent over Q
                frames.append(F)
        inputs = {"monte_carlo": {"height": 10, "cutoff": 20,
                                  "samples": 200,
                                  "seed": rng.randrange(1 << 30)},
                  "sp_primes": primes_upto(31), "census_p": 2,
                  "frames": frames, "frame_primes": [2, 3, 5, 7]}
        return inputs, {}
    raise ValueError(workload)


def run_child(args, stdin_text, timeout):
    proc = subprocess.Popen(args, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(stdin_text, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("child process exceeded the run deadline")
    if proc.returncode != 0:
        raise RuntimeError("child process exited with %d" % proc.returncode)
    return out


def time_setup():
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        run_child([sys.executable, WORKER, "--setup", SRC], "", 60)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def check_rounds(workload, rounds, inputs, oracle):
    import pb_oracles as orc

    data = os.path.join(SRC, "symmetroid", "data")
    pencils = {name: orc.read_pencil(os.path.join(data, name + ".pencil"))
               for name in ("thm_example", "prop_q3", "cor_easy")}
    first = rounds[0]
    errs = []
    if workload == "wa-certify":
        errs += orc.check_wa(first["ops"], pencils)
    elif workload == "symbol-lattice":
        errs += orc.check_symbol_lattice(first["ops"], pencils,
                                         oracle["points"])
    else:
        errs += orc.check_sieve(first["ops"], pencils, inputs,
                                first["extra"]["frames"])
    # later rounds ran the same inputs: their outputs must not differ
    for k, rnd in enumerate(rounds[1:], start=2):
        for a, b in zip(first["ops"], rnd["ops"]):
            if (a["ok"], a["output"]) != (b["ok"], b["output"]):
                errs.append("round %d: %s output differs from round 1"
                            % (k, a["group"]))
    return errs


def end_to_end_metrics(rounds, setup_s):
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "wall_s": {"value": statistics.median(r["round_s"] for r in rounds),
                   "unit": "s"},
        "peak_rss_mb": {"value": max(r["peak_rss_mb"] for r in rounds),
                        "unit": "MB"},
    }


def per_layer_metrics(rounds, inputs):
    def med(values):
        return statistics.median(list(values))

    def group_s(rnd, group):
        return sum(op["seconds"] for op in rnd["ops"] if op["group"] == group)

    out = {}
    for metric, span, field in LAYER_METRICS:
        out[metric] = {"value": med(r["layers"].get(span, {}).get(field, 0)
                                    for r in rounds),
                       "unit": UNITS[field]}
    for metric, group in OP_METRICS:
        out[metric] = {"value": med(group_s(r, group) for r in rounds),
                       "unit": "s"}
    mc_s = med(group_s(r, "monte_carlo") for r in rounds)
    census_s = med(group_s(r, "census") for r in rounds)
    mc = inputs.get("monte_carlo")
    p = inputs.get("census_p")
    out["mc_frames_per_s"] = {
        "value": mc["samples"] / mc_s if mc_s else 0.0, "unit": "frames/s"}
    out["census_quadrics_per_s"] = {
        "value": (p ** 15 - 1) // (p - 1) / census_s if census_s else 0.0,
        "unit": "quadrics/s"}
    out["traced_wall_s"] = {"value": med(r["round_s"] for r in rounds),
                            "unit": "s"}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "symmetroid", "__init__.py")):
        print("run.py: no package source under %s; run from the root of a "
              "checkout" % SRC, file=sys.stderr)
        return 2
    start = time.monotonic()
    deadline = start + DEADLINE_S
    setup_s = None if args.trace else time_setup()
    inputs, oracle = make_inputs(args.workload, args.seed)
    spec = {"workload": args.workload, "seed": args.seed, "src": SRC,
            "trace": bool(args.trace), "inputs": inputs}
    rounds = []
    measure_start = time.monotonic()
    while True:
        t0 = time.monotonic()
        if args.trace:
            os.makedirs(OUT_DIR, exist_ok=True)
            spec["trace_path"] = os.path.join(
                OUT_DIR, "trace-%s-seed%d-round%d.json"
                % (args.workload, args.seed, len(rounds) + 1))
        out = run_child([sys.executable, WORKER], json.dumps(spec),
                        deadline - t0)
        rounds.append(json.loads(out.strip().splitlines()[-1]))
        now = time.monotonic()
        if now - measure_start >= args.seconds or now + (now - t0) > deadline:
            break
    t0 = time.monotonic()
    errs = check_rounds(args.workload, rounds, inputs, oracle)
    groups = {}
    for op in rounds[0]["ops"]:
        groups[op["group"]] = groups.get(op["group"], 0.0) + op["seconds"]
    print("%s seed %d: %d round(s) in %.1f s, checks %.1f s; round 1: %s"
          % (args.workload, args.seed, len(rounds), t0 - measure_start,
             time.monotonic() - t0,
             ", ".join("%s %.2f s" % kv for kv in groups.items())),
          file=sys.stderr)
    for e in errs:
        print("check failed: " + e, file=sys.stderr)
    for rnd in rounds:
        for op in rnd["ops"]:
            if not op["ok"]:
                print("operation failed: %s %s" % (op["group"], op["error"]
                                                   or op["output"]),
                      file=sys.stderr)
    metrics = (per_layer_metrics(rounds, inputs) if args.trace
               else end_to_end_metrics(rounds, setup_s))
    result = {"correct": not errs,
              "attempted": sum(len(r["ops"]) for r in rounds),
              "failed": sum(1 for r in rounds for op in r["ops"]
                            if not op["ok"]),
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
