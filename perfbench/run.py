"""eigenball benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.
Each run is a closed loop in one process: every operation starts after the
previous one returns.  The only other processes are the short-lived
interpreters that time the package import during set-up.

A pass is one full batch of the workload's seeded operations.  The run
repeats passes while the next one is expected to finish within ``--seconds``
and runs at least one.  With ``--trace 1`` it alternates untraced and traced
passes and runs at least one of each, so a traced run can take about twice
as long as one pass even when that is longer than ``--seconds``.

The deterministic work counts of every pass must repeat exactly: across the
passes of a run, and across runs of the same workload, seed and code.  The
first run of a (workload, seed, code digest) records its counts under
``.perfbench_out/counts/``; every later run compares its own with them.
Standard output lists every operation and every metric with its unit; its
last line is the JSON result.  Everything the run writes goes under
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread for this process and the processes it starts
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from inputs import WORKLOADS, make_inputs
from spans import Tracer, select, self_times

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# each set-up starts an interpreter, about 0.8 s in all; ten keep a run's
# set-up phase under 10 s
SETUP_REPEATS = 10
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import eigenball.cli; "
    "print(time.perf_counter() - t)"
)
LAYERS = ("grid", "operators", "solver", "eigen", "certify", "cli")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def environment(seed: int) -> dict:
    import scipy

    import eigenball

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "eigenball": eigenball.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "seed": seed,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def import_seconds() -> float:
    """Import time of the package in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    res = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(res.stdout)


def code_digest() -> str:
    """Digest of the package and benchmark sources, which fix the work counts."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *Path(__file__).parent.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def recorded_counts(workload: str, seed: int, counts: dict):
    """Compare a pass's counts with the first run of this workload, seed and
    code; record them if this is that first run.  Returns (path, same)."""
    path = OUT / "counts" / f"{workload}-seed{seed}-{code_digest()}.json"
    if path.is_file():
        return path, json.loads(path.read_text()) == counts
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(counts, sort_keys=True) + "\n")
    tmp.replace(path)
    return path, True


def report_path(run_tag: str) -> Path:
    """A report file of its own for every run."""
    k = 0
    while (OUT / f"{run_tag}-run{k}.json").exists():
        k += 1
    return OUT / f"{run_tag}-run{k}.json"


def run_pass(ops, tracer, next_op: int):
    from workloads import Outcome

    outcomes, op_ids, latencies = [], [], []
    for label, op in ops:
        tracer.op = next_op
        op_ids.append(next_op)
        next_op += 1
        t0 = perf_counter()
        try:
            outs = op()
        except Exception as e:  # an operation that raises fails; the run goes on
            outs = [Outcome(label, "error", ok=False, check_ok=False, detail=f"{type(e).__name__}: {e}")]
        latencies.append((label, perf_counter() - t0))
        outcomes.extend(outs)
    tracer.op = -1
    return outcomes, op_ids, latencies


def work_counts(outcomes, mono_spans) -> dict:
    """Deterministic counts of one pass."""
    return {
        "attempted": len(outcomes),
        "ok": sum(not o.failed for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "unexpected": sum(o.unexpected for o in outcomes),
        "probes": len(mono_spans["work"]),
        "monotone_steps": int(mono_spans["work"].sum()),
        "solve_iterations": sum(o.iterations for o in outcomes),
    }


def layer_metrics(spans, names, n_passes: int, solve_failed: float, overhead_s: float) -> dict:
    """Per-layer metrics of the traced passes, per pass."""
    n = n_passes
    self_s = self_times(spans)
    dur = spans["end"] - spans["start"]
    ids = {name: i for i, name in enumerate(names)}

    def pick(*wanted):
        return np.isin(spans["name"], [ids[w] for w in wanted if w in ids])

    def total(*wanted):
        return float(dur[pick(*wanted)].sum()) / n

    def per_unit(mask, units, scale=1e6):
        return scale * float(dur[mask].sum()) / units if units else 0.0

    mono = pick("solver.monotone_iteration")
    mono_steps = int(spans["work"][mono].sum())
    solve = pick("solver.solve_neumann")
    solve_iters = int(spans["work"][solve].sum())
    deriv = pick("grid.derivative_arrays")
    deriv_calls = int(np.count_nonzero(deriv))
    layer_of = np.array([name.split(".", 1)[0] for name in names] + [""])
    layer = layer_of[spans["name"]]
    m = {
        "eigen.probes": (np.count_nonzero(mono) / n, "count"),
        "eigen.probe_p50_s": (float(np.median(dur[mono])) if mono.any() else 0.0, "s"),
        "eigen.probe_max_s": (float(dur[mono].max()) if mono.any() else 0.0, "s"),
        "solver.monotone_calls": (np.count_nonzero(mono) / n, "count"),
        "solver.monotone_steps": (mono_steps / n, "count"),
        "solver.monotone_us_per_step": (per_unit(mono, mono_steps), "us"),
        "solver.monotone_self_s": (float(self_s[mono].sum()) / n, "s"),
        "solver.solve_calls": (np.count_nonzero(solve) / n, "count"),
        "solver.solve_iterations": (solve_iters / n, "count"),
        "solver.solve_us_per_iter": (per_unit(solve, solve_iters), "us"),
        "solver.solve_failed": (solve_failed, "count"),
        "solver.solve_self_s": (float(self_s[solve].sum()) / n, "s"),
        "solver.residual_calls": (np.count_nonzero(pick("solver.residual")) / n, "count"),
        "solver.residual_s": (total("solver.residual"), "s"),
        "grid.derivative_calls": (deriv_calls / n, "count"),
        "grid.derivative_us_per_call": (per_unit(deriv, deriv_calls), "us"),
        # computed, not measured: reads n doubles, writes 2n
        "grid.computed_bytes_per_call": (
            24.0 * float(spans["work"][deriv].sum()) / deriv_calls if deriv_calls else 0.0, "B"),
        "operators.sample_s": (total("operators.sample_profile"), "s"),
        "operators.signed_power_s": (total("operators.signed_power"), "s"),
        "operators.gradient_floor_s": (total("operators.gradient_floor"), "s"),
        "operators.check_s": (total("operators.check_homogeneity", "operators.check_ellipticity"), "s"),
        "certify.verify_s": (total("certify.verify"), "s"),
        "cli.run_s": (total("cli.run"), "s"),
    }
    for name in LAYERS:
        m[f"{name}.self_s"] = (float(self_s[layer == name].sum()) / n, "s")
    m["trace.spans"] = (len(dur) / n, "count")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m


def metric_names(trace: int) -> list:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "eigenball" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    run_tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    scratch = OUT / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    try:
        # set-up: import in a fresh interpreter, input generation and
        # object construction; repeated, median reported
        setups = []
        for _ in range(SETUP_REPEATS):
            t_import = import_seconds()
            t0 = perf_counter()
            ctx = workloads.Context(seed=args.seed, tracer=tracer, scratch=scratch)
            ops = workloads.prepare(args.workload, make_inputs(args.workload, args.seed), ctx)
            setups.append(t_import + perf_counter() - t0)
        setup_s = statistics.median(setups)

        passes = []
        next_op = 0
        t_start = perf_counter()
        while True:
            traced = args.trace == 1 and len(passes) % 2 == 1
            tracer.install(traced)
            t0 = perf_counter()
            try:
                outcomes, op_ids, latencies = run_pass(ops, tracer, next_op)
            finally:
                tracer.uninstall()
            passes.append(
                {
                    "traced": traced,
                    "wall_s": perf_counter() - t0,
                    "outcomes": outcomes,
                    "ops": op_ids,
                    "latencies": latencies,
                }
            )
            next_op = op_ids[-1] + 1
            typical = statistics.median(p["wall_s"] for p in passes)
            needed = 2 if args.trace == 1 else 1
            if len(passes) >= needed and perf_counter() - t_start + typical > args.seconds:
                break

        spans = tracer.arrays()
        names = list(tracer.names)
        mono_id = names.index("solver.monotone_iteration") if "solver.monotone_iteration" in names else -1
        mono = {k: v[spans["name"] == mono_id] for k, v in spans.items()}
        counts = []
        for p in passes:
            mine = select(mono, p["ops"])
            counts.append(work_counts(p["outcomes"], mine))
            p["operations"] = [
                {"label": label, "seconds": seconds,
                 "probes": int(np.count_nonzero(mine["op"] == op)),
                 "monotone_steps": int(mine["work"][mine["op"] == op].sum())}
                for (label, seconds), op in zip(p["latencies"], p["ops"])
            ]
        repeat = all(c == counts[0] for c in counts)
        record, same_as_record = recorded_counts(args.workload, args.seed, counts[0])

        untraced = [p for p in passes if not p["traced"]]
        all_outcomes = [o for p in passes for o in p["outcomes"]]
        attempted = len(all_outcomes)
        failed_ops = sum(o.unexpected for o in all_outcomes)

        wall_s = statistics.median(p["wall_s"] for p in untraced)
        end_to_end = {
            "wall_s": (wall_s, "s"),
            "setup_s": (setup_s, "s"),
            "ops_per_s": (
                sum(len(p["outcomes"]) for p in untraced) / sum(p["wall_s"] for p in untraced),
                "1/s",
            ),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        extras = {
            "failed_frac": (sum(o.failed for o in all_outcomes) / attempted, "ratio"),
            "passes": (len(passes), "count"),
        }
        lambda_errs = [o.values["lambda_err"] for o in all_outcomes if "lambda_err" in o.values]
        if lambda_errs:
            extras["lambda_err"] = (max(lambda_errs), "1")

        layers = {}
        if args.trace == 1:
            traced_passes = [p for p in passes if p["traced"]]
            solve_failed = sum(
                o.failed for p in traced_passes for o in p["outcomes"] if o.kind == "solve"
            )
            layers = layer_metrics(
                select(spans, [i for p in traced_passes for i in p["ops"]]),
                names,
                len(traced_passes),
                solve_failed / len(traced_passes),
                statistics.median(p["wall_s"] for p in traced_passes) - wall_s,
            )
            tracer.save(OUT / f"{run_tag}-spans.npz")

        report = print_report(args, environment(args.seed), passes, counts, repeat,
                              (record, same_as_record), {**end_to_end, **extras, **layers})
        with open(report_path(run_tag), "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")

        chosen = layers if args.trace == 1 else end_to_end
        result = {
            "correct": failed_ops == 0 and repeat and same_as_record,
            "attempted": attempted,
            "failed": failed_ops,
            "metrics": {
                k: {"value": float(chosen[k][0]), "unit": chosen[k][1]}
                for k in metric_names(args.trace)
            },
        }
        print(json.dumps(result))
        return 0
    finally:
        tracer.uninstall()
        shutil.rmtree(scratch, ignore_errors=True)


def print_report(args, env, passes, counts, repeat, recorded, metrics) -> dict:
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print("note: closed loop in one process; machine-wide tracing and cache dropping are out of scope")
    for i, p in enumerate(passes):
        print(f"pass {i} {'traced' if p['traced'] else 'untraced'} {p['wall_s']:.3f} s")
        for r in p["operations"]:
            print(f"  op {r['label']:29s} {r['seconds']:9.3f} s  probes={r['probes']} "
                  f"monotone_steps={r['monotone_steps']}")
        for o in p["outcomes"]:
            status = "ok" if not o.failed else ("known-failure" if not o.unexpected else "FAILED")
            print(f"  {o.label:32s} {status:14s} it={o.iterations:<6d} {o.detail}")
    for i, c in enumerate(counts):
        print(f"counts pass {i} " + " ".join(f"{k}={v}" for k, v in c.items()))
    print(f"counts repeat exactly across passes: {repeat}")
    record, same = recorded
    print(f"counts match the record of this workload, seed and code: {same} "
          f"({record.relative_to(ROOT)})")
    for name, (value, unit) in metrics.items():
        print(f"metric {name:34s} {value:.6g} {unit}")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "counts": counts,
        "counts_repeat": repeat,
        "counts_record": str(recorded[0].relative_to(ROOT)),
        "counts_match_record": recorded[1],
        "passes": [
            {
                "traced": p["traced"],
                "wall_s": p["wall_s"],
                "operations": p["operations"],
                "outcomes": [
                    {"label": o.label, "ok": o.ok, "check_ok": o.check_ok,
                     "may_fail": o.may_fail, "iterations": o.iterations,
                     "detail": o.detail, **o.values}
                    for o in p["outcomes"]
                ],
            }
            for p in passes
        ],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
