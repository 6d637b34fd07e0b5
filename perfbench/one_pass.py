"""One pass of one workload, in a fresh interpreter; prints one JSON line.

`run.py` starts this script once per pass, so that every pass pays the
import and set-up a user pays and no state carries over between passes.

    python3 perfbench/one_pass.py --workload loop-ideal --spawned-at T
        [--setup-only] [--check-seed N] [--trace-to PATH]

`--spawned-at` is the CLOCK_MONOTONIC reading taken just before the process
was started; set-up time is measured from it.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

LOOP_SYSTEMS = ("unicycle", "quadrotor", "aircraft")
# the full optimistic aircraft run takes 151 steps and about 25 s; the cap
# keeps loop-optim near 100 controller iterations
OPTIM_AIRCRAFT_STEPS = 30
# controller compute per iteration: the calls run_closed_loop makes per step,
# looked up in datareach.systems; the first one present opens an iteration
LOOP_ITER_NAMES = ("datacontrol_step", "append_sample", "rebuild")

# the paper's unicycle tube-comparison figure
FIG_SEED, FIG_N, FIG_DT, FIG_X0 = 2, 15, 0.1, (-2.0, -2.5, math.pi / 2)
TUBE_DT, TUBE_T, T_REF, OMEGA = 0.02, 200, 1.5, 6.0
A1, A2 = (-0.1, 0.1), (-0.01, 0.01)
SETUP_SAMPLES = 3  # host-speed samples that correct the set-up time


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class IterTimer:
    """Raw (start, end) intervals of the wrapped calls, grouped by iteration."""

    def __init__(self, speed):
        self.speed = speed
        self.iters = []

    def wrap(self, module, names):
        opener = True
        for name in names:
            fn = getattr(module, name, None)
            if fn is None:
                continue
            setattr(module, name, self._timed(fn, opener))
            opener = False

    def _timed(self, fn, opener):
        iters, speed, clock = self.iters, self.speed, time.perf_counter

        def timed(*args, **kwargs):
            speed.maybe_sample()
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span = (start, clock())
                if opener or not iters:
                    iters.append([span])
                else:
                    iters[-1].append(span)

        return timed


class Accum:
    """Raw (start, end) intervals of every call to one wrapped function.

    The calls are long and few, so the host speed is sampled right before
    and right after each."""

    def __init__(self, speed, module, name):
        self.intervals = []
        fn = getattr(module, name, None)
        if fn is not None:
            setattr(module, name, self._timed(speed, fn))

    def _timed(self, speed, fn):
        def timed(*args, **kwargs):
            speed.sample()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.intervals.append((start, time.perf_counter()))
                speed.sample()

        return timed


def sample_before(speed, module, name):
    """Sample the host speed before each call to `name`, so that long calls
    made of many such calls (knowledge builds and rebuilds) get samples inside."""
    fn = getattr(module, name, None)
    if fn is None:
        return

    def sampled(*args, **kwargs):
        speed.maybe_sample()
        return fn(*args, **kwargs)

    setattr(module, name, sampled)


def _failed(exc):
    return f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# closed loops
# ---------------------------------------------------------------------------

class Loop:
    def __init__(self, dr, mode):
        self.dr = dr
        self.episodes = []
        for name in LOOP_SYSTEMS:
            capped = mode == "optimistic" and name == "aircraft"
            kw = {"mode": mode}
            if capped:
                kw["max_steps"] = OPTIM_AIRCRAFT_STEPS
            self.episodes.append(
                (dr.systems.by_name(name), dr.systems.experiment_for(name, **kw), capped)
            )

    def instrument(self, speed):
        self.iter_timer = IterTimer(speed)
        self.iter_timer.wrap(self.dr.systems, LOOP_ITER_NAMES)
        self.build = Accum(speed, self.dr.systems, "build_knowledge")
        sample_before(speed, self.dr.knowledge, "contract_fg")

    def run(self):
        self.reports = []
        for sys_, cfg, _ in self.episodes:
            try:
                self.reports.append(self.dr.systems.run_closed_loop(sys_, cfg))
            except Exception as exc:  # an episode that raises is a failed operation
                self.reports.append(_failed(exc))

    def results(self, check_seed):
        ops, bounds = [], []
        self.micros_s = 0.0
        cum_cost = steps = 0
        for (sys_, cfg, capped), rep in zip(self.episodes, self.reports):
            op = {"name": sys_.name, "ok": True, "why": ""}
            ops.append(op)
            if isinstance(rep, str):
                op.update(ok=False, why=rep)
                continue
            if rep.failure:
                op.update(ok=False, why=rep.failure)
            elif not capped and not rep.reached:
                op.update(ok=False, why=f"goal not reached in {rep.steps_taken} steps")
            cum_cost += rep.cum_cost
            steps += rep.steps_taken
            bounds += [log.bound for log in rep.logs]
            self.micros_s += sum(log.micros for log in rep.logs) * 1e-6
            op.update(cum_cost=rep.cum_cost, steps=rep.steps_taken,
                      bound_mean=sum(log.bound for log in rep.logs) / max(len(rep.logs), 1))
            if check_seed is not None and op["ok"] and sys_.name == "unicycle":
                import checks

                ok, why, margin = checks.unicycle_bound_check(self.dr.systems, sys_, cfg, rep)
                op["bound_margin"] = margin
                if not ok:
                    op.update(ok=False, why=why)
        return ops, {
            "result_cost": cum_cost,
            "guarantee_width": sum(bounds) / max(len(bounds), 1),
            "steps": steps,
        }


# ---------------------------------------------------------------------------
# tube figure
# ---------------------------------------------------------------------------

class TubeFig:
    def __init__(self, dr):
        self.dr = dr
        self.sys = dr.systems.unicycle()
        self.settings = dr.systems.unicycle_knowledge_settings()
        Interval = dr.intervals.Interval
        self.ctrl = dr.reach.ConstCosControl(
            omega=OMEGA, t_ref=T_REF, a1=Interval(*A1), a2=Interval(*A2)
        )

    def instrument(self, speed):
        self.iter_timer = IterTimer(speed)
        self.iter_timer.wrap(self.dr.reach, ("datareach_step",))
        self.build = Accum(speed, self.dr.knowledge, "build_knowledge")
        sample_before(speed, self.dr.knowledge, "contract_fg")

    def run(self):
        systems, sys_ = self.dr.systems, self.sys
        samples = systems.excite(sys_, FIG_N, seed=FIG_SEED, dt=FIG_DT, x0=list(FIG_X0))
        self.x_start = systems.advance(sys_, samples[-1].x, samples[-1].u, FIG_DT)
        self.tubes = []
        for side in self.settings.values():
            try:
                kb = self.dr.knowledge.build_knowledge(samples, sys_.lip, side)
                self.tubes.append(self.dr.reach.datareach(
                    kb, self.x_start, self.ctrl, TUBE_DT, TUBE_T, t0=T_REF, domain=sys_.X
                ))
            except Exception as exc:  # a tube that raises is a failed operation
                self.tubes.append(_failed(exc))

    def results(self, check_seed):
        ops, terminal, widths = [], 0.0, []
        fan = None
        if check_seed is not None:
            import numpy as np

            import checks

            fan = checks.unicycle_fan(self.x_start, TUBE_T, TUBE_DT, T_REF, A1, A2, OMEGA,
                                      np.random.default_rng(check_seed))
        for name, tube in zip(self.settings, self.tubes):
            op = {"name": name, "ok": True, "why": ""}
            ops.append(op)
            if isinstance(tube, str):
                op.update(ok=False, why=tube)
                continue
            if tube.failure:
                op.update(ok=False, why=tube.failure)
            lo, hi = tube.boxes()
            tw = [float(w) for w in tube.terminal_width()]
            terminal += sum(tw)
            widths += [float(w) for w in (hi - lo).sum(axis=1)]
            op["terminal_width"] = tw
            if fan is not None and op["ok"]:
                ok, why = checks.tube_contains_fan(lo, hi, fan)
                if not ok:
                    op.update(ok=False, why=why)
        return ops, {
            "result_cost": terminal,
            "guarantee_width": sum(widths) / max(len(widths), 1),
            "steps": sum(len(t) - 1 for t in self.tubes if not isinstance(t, str)),
        }


WORKLOADS = {
    "loop-ideal": lambda dr: Loop(dr, "idealistic"),
    "loop-optim": lambda dr: Loop(dr, "optimistic"),
    "tube-fig": TubeFig,
}


class _Library:
    """The datareach modules, looked up once so wrappers can be installed on them."""

    def __init__(self):
        import datareach
        from datareach import control, intervals, knowledge, qpsolve, reach, systems

        self.package = datareach
        self.intervals, self.knowledge, self.reach = intervals, knowledge, reach
        self.control, self.qpsolve, self.systems = control, qpsolve, systems

    def modules(self):
        return {
            "package": self.package, "intervals": self.intervals,
            "knowledge": self.knowledge, "reach": self.reach, "control": self.control,
            "qpsolve": self.qpsolve, "systems": self.systems,
        }


def stamp():
    """numpy and BLAS versions as this interpreter loads them."""
    import numpy as np

    blas = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        pass
    return {"numpy": np.__version__, "blas": blas}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--check-seed", type=int)
    ap.add_argument("--trace-to")
    args = ap.parse_args(argv)

    dr = _Library()
    work = WORKLOADS[args.workload](dr)
    speed = hostspeed.HostSpeed()
    if args.trace_to:
        import tracer

        trace = tracer.Tracer(dr.modules(), speed)
        trace.install()
    else:
        work.instrument(speed)
    setup_raw = now() - args.spawned_at
    first = [speed.sample() for _ in range(SETUP_SAMPLES)]
    setup_s = setup_raw * hostspeed.NOMINAL_S / statistics.median(first)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw}))
        return

    start = time.perf_counter()
    work.run()
    end = time.perf_counter()
    speed.sample()

    ops, quality = work.results(args.check_seed)
    out = {
        "setup_s": setup_s,
        "setup_raw_s": setup_raw,
        "wall_s": speed.correct([(start, end)]),
        "wall_raw_s": end - start,
        "slowdown_p50": statistics.median(speed.factors),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": ops,
        "quality": quality,
    }
    if args.check_seed is not None:
        out["stamp"] = stamp()
    if args.trace_to:
        out["layers"] = trace.metrics()
        trace.write(args.trace_to, {"workload": args.workload})
    else:
        out["build_s"] = speed.correct(work.build.intervals)
        out["iters_s"] = [speed.correct(spans) for spans in work.iter_timer.iters]
        out["micros_s"] = getattr(work, "micros_s", 0.0)
        out["ctrl_raw_s"] = sum(b - a for spans in work.iter_timer.iters for a, b in spans)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
