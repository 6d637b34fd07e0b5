"""Benchmark of the datareach library: closed loops and reach tubes.

    python3 perfbench/run.py --workload loop-ideal --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from `src/`.
Each pass of the workload runs in a fresh interpreter (`one_pass.py`) with
BLAS pinned to one thread, so every pass pays the import and set-up a user
pays and nothing is cached between passes.  Passes repeat until `--seconds`
is used up, and at least MIN_PASSES run.

Workloads (the library's seeds are the presets' defaults; `--seed` draws the
Monte-Carlo fan that checks the tubes):

  loop-ideal  run_closed_loop on unicycle, quadrotor and aircraft, idealistic
              mode, each to its goal (355 controller iterations); knowledge
              upkeep dominates, the QP solver is under 1 %.
  loop-optim  the same presets in optimistic mode, the aircraft capped at 30
              steps (100 iterations); the optimistic solver dominates.
  tube-fig    the paper's unicycle tube figure: a 15-sample excitation, three
              knowledge bases, a 200-step `datareach` tube on each; the read
              path of the knowledge base and the reach step.

Every time is corrected for the speed of the shared host (see hostspeed.py);
the raw times are in the details line printed before the result line.

End-to-end metrics (`--trace 0`), each the median over passes unless noted:

  setup_s          process start to the first timed call (imports and inputs)
  wall_s           the workload's timed body
  iter_ms_p50/p90  per iteration, pooled over passes: controller compute
                   (datacontrol_step plus that iteration's append_sample and
                   rebuild) on the loops, one datareach_step on tube-fig
  build_s          time in build_knowledge: the loops' cold builds, or the
                   figure's three builds
  peak_rss_mb      peak resident memory of a pass
  result_cost      loops: summed realized cost of the episodes;
                   tube-fig: summed terminal widths of the three tubes
  guarantee_width  loops: mean suboptimality bound per controller step;
                   tube-fig: mean summed box width per tube step
  steps            loops: controller steps taken; tube-fig: reach steps

Failed operations over operations attempted are the result line's `failed`
and `attempted`.  Operations are episodes and tubes.  An operation fails if
it raises, records a failure, misses its goal when uncapped, or fails an
output check (`checks.py`; run on the first pass, outside the timed body).

The quality metrics and the traced pass's exact counts (EXACT_LAYER) must
repeat exactly: they are compared between passes and with earlier runs of
the same sources, kept in `.perfbench_out/`, and a difference is flagged on
stderr and in the details line.

`--trace 1` runs untraced passes for half of `--seconds` and then one traced
pass, and reports the per-layer metrics of `tracer.py` together with the
tracing overhead (traced wall time over untraced, minus one).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("loop-ideal", "loop-optim", "tube-fig")
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MIN_PASSES = 3
MIN_SETUPS = 9
PASS_TIMEOUT_S = 150
QUALITY = ("result_cost", "guarantee_width", "steps")
# counts that must repeat exactly between runs of the same sources
EXACT_LAYER = (
    "knowledge.contract_fg.calls", "knowledge.passes_per_rebuild",
    "qpsolve.solve_idealistic.iters_p50", "qpsolve.solve_optimistic.iters_p50",
    "qpsolve.solve_optimistic.iters_per_orthant_p50", "intervals.boxes",
)


class PassFailed(RuntimeError):
    pass


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_pass(workload, *extra):
    env = dict(os.environ, **BLAS_ENV)
    spawned = now()
    proc = subprocess.run(
        [sys.executable, str(HERE / "one_pass.py"), "--workload", workload,
         "--spawned-at", repr(spawned), *extra],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=PASS_TIMEOUT_S,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise PassFailed(f"pass of {workload} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, q):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, math.ceil(q / 100.0 * len(s)) - 1)]


def src_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(stamp):
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": stamp.get("numpy"),
        "openblas": stamp.get("blas"),
        "blas_threads": BLAS_ENV,
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
    }


def compare_exact(workload, digest, counts):
    """Names whose value differs from an earlier run of the same sources."""
    ref_path = OUT / f"exact-{workload}.json"
    ref = {}
    if ref_path.is_file():
        stored = json.loads(ref_path.read_text())
        if stored.get("src_sha256") == digest:
            ref = stored["counts"]
    differ = sorted(k for k, v in counts.items() if k in ref and ref[k] != v)
    ref_path.write_text(json.dumps({"src_sha256": digest, "counts": {**counts, **ref}}))
    return differ


def measure(args):
    budget = args.seconds / 2.0 if args.trace else float(args.seconds)
    min_passes = 1 if args.trace else MIN_PASSES
    passes = []
    start = now()
    while True:
        first = ["--check-seed", str(args.seed)] if not passes else []
        passes.append(run_pass(args.workload, *first))
        elapsed = now() - start
        if len(passes) >= min_passes and elapsed * (1.0 + 1.0 / len(passes)) > budget:
            break
    setups = [p["setup_s"] for p in passes]
    while not args.trace and len(setups) < MIN_SETUPS:
        setups.append(run_pass(args.workload, "--setup-only")["setup_s"])
    traced = None
    if args.trace:
        traced = run_pass(args.workload, "--trace-to", str(OUT / f"{args.workload}.spans.jsonl"))
    return passes, setups, traced


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "datareach" / "__init__.py").is_file():
        print(f"perfbench: no library sources at {ROOT / 'src' / 'datareach'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    try:
        passes, setups, traced = measure(args)
    except (PassFailed, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3

    runs = passes + ([traced] if traced else [])
    ops = [op for p in runs for op in p["ops"]]
    failures = [op for op in ops if not op["ok"]]
    quality = passes[0]["quality"]
    quality_repeat = all(p["quality"] == quality for p in runs)
    iters = [t for p in passes for t in p["iters_s"]]

    if args.trace:
        values = dict(traced["layers"])
        untraced_wall = statistics.median(p["wall_s"] for p in passes)
        values["trace.overhead"] = traced["wall_s"] / untraced_wall - 1.0
        micros_s = sum(p["micros_s"] for p in passes)
        ctrl_s = sum(p["ctrl_raw_s"] for p in passes)
        values["control.micros_coverage"] = micros_s / ctrl_s if micros_s else 0.0
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(p["wall_s"] for p in passes),
            "iter_ms_p50": 1e3 * percentile(iters, 50),
            "iter_ms_p90": 1e3 * percentile(iters, 90),
            "build_s": statistics.median(p["build_s"] for p in passes),
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
            **{k: quality[k] for k in QUALITY},
        }

    env = environment(passes[0].get("stamp", {}))
    exact = {k: quality[k] for k in QUALITY}
    if traced:
        exact.update({k: traced["layers"][k] for k in EXACT_LAYER if k in traced["layers"]})
    differ = compare_exact(args.workload, env["src_sha256"], exact)
    if differ or not quality_repeat:
        print(f"perfbench: counts that should repeat differ: {differ or 'quality between passes'}",
              file=sys.stderr)
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(passes), "setups": len(setups),
        "iter_samples": len(iters), "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_wall_raw_s": [p["wall_raw_s"] for p in passes],
        "pass_slowdown_p50": [p["slowdown_p50"] for p in passes],
        "pass_build_s": [p["build_s"] for p in passes],
        "setup_s": setups,
        "ops": passes[0]["ops"], "failures": failures,
        "quality_repeat": quality_repeat, "exact_counts": exact, "exact_differ": differ,
        "env": env,
    }
    result = {
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in spec["per_layer" if args.trace else "end_to_end"]},
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"details": details, "result": result}, indent=1)
    )
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
