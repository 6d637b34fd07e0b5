"""Command-line front end: reach / control / benchmark subcommands."""

from __future__ import annotations

import argparse
import contextlib
import itertools
import math
import sys as _sys
from pathlib import Path

import numpy as np
import yaml

from . import io as dio
from .control import MODES
from .errors import (
    ConfigError, EmptyIntersection, InconsistentSample, StepTooLarge, check_array, check_count,
    check_positive,
)
from .intervals import Interval
from .knowledge import FIXPOINT_TOL, SideInfoSet, build_knowledge
from .reach import ConstantControl, ConstCosControl, PiecewiseConstantControl, datareach, max_step_size
from .systems import (
    ExperimentConfig,
    advance,
    by_name,
    check_experiment,
    excite,
    experiment_for,
    run_closed_loop,
    unicycle_knowledge_settings,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STEP = 3
EXIT_DATA = 4

_REACH_KEYS = {
    "dt", "steps", "init_len", "seed", "excitation", "side_level", "control",
    "trajectory", "x0", "intersect_domain",
}
_CONTROL_KEYS = {
    "dt", "init_len", "seed", "mode", "eps", "mu0", "max_steps", "stop_level",
    "weights", "excitation", "x0", "record_reach",
}
_BENCH_KEYS = {"max_steps", "seeds", "systems", "modes"}
# the keys of each family of the reach.control block
_FAMILY_KEYS = {
    "const_cos": {"family", "v0", "omega", "t_ref", "a1", "a2"},
    "constant": {"family", "value"},
    "piecewise": {"family", "values", "dt", "t0"},
}


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = yaml.safe_load(fh) or {}
    except (OSError, yaml.YAMLError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a mapping")
    unknown = set(cfg) - {"system", "reach", "control", "benchmark", "out"}
    if unknown:
        raise ConfigError(f"unknown top-level config keys: {sorted(unknown)}")
    return cfg


def _check_keys(section: dict, allowed: set, name: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in [{name}]: {sorted(unknown)}")


def _vector(value):
    return np.asarray(value, dtype=float)


def _flag(value):
    """A YAML boolean; anything else (the string "false" too) is rejected."""
    if not isinstance(value, bool):
        raise TypeError(value)
    return value


def _interval(value):
    lo, hi = _vector(value)
    return Interval(lo, hi)


def _integer(value):
    """A whole number by `check_count`'s rule: no fraction, no boolean."""
    return check_count("value", value, -math.inf)


_KIND_NAMES = {_integer: "an integer", _vector: "a list of numbers",
               _flag: "true or false", _interval: "a [lo, hi] pair"}


def _convert(key, value, kind):
    """``kind(value)``; a value it cannot convert is a config error naming ``key``."""
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key} must be {_KIND_NAMES[kind]}, not {value!r}") from exc


def _setting(section, key, kind, default):
    return _convert(key, section.get(key, default), kind)


@contextlib.contextmanager
def _config_errors(prefix=""):
    """Report a ValueError the block raises, such as a library check's, as
    a config error."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from exc


def _system(name):
    """The benchmark system called ``name``; an unknown name is a config error."""
    try:
        return by_name(name)
    except ValueError as exc:
        raise ConfigError(f"unknown system {name!r}") from exc


def _list_setting(section, key, default) -> list:
    value = section.get(key, default)
    if not isinstance(value, list):
        raise ConfigError(f"{key} must be a list, not {value!r}")
    return value


def _outdir(args, cfg) -> Path:
    out = Path(args.out or cfg.get("out", "out"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _required(spec, key):
    if key not in spec:
        raise ConfigError(f"control family {spec['family']!r} needs {key}")
    return spec[key]


def _build_control_family(spec, t_ref: float, m: int):
    """The control family of a reach.control block, for a system with m inputs;
    a setting the family's constructor rejects is a config error."""
    if not isinstance(spec, dict):
        raise ConfigError(f"reach.control must be a mapping, not {spec!r}")
    fam = spec.get("family", "const_cos")
    if not isinstance(fam, str) or fam not in _FAMILY_KEYS:
        raise ConfigError(f"unknown control family {fam!r}")
    _check_keys(spec, _FAMILY_KEYS[fam], f"reach.control, family {fam}")
    with _config_errors("control "):
        if fam == "const_cos":
            return ConstCosControl(
                v0=spec.get("v0", 1.0), omega=spec.get("omega", 6.0),
                t_ref=spec.get("t_ref", t_ref),
                a1=_setting(spec, "a1", _interval, [0.0, 0.0]),
                a2=_setting(spec, "a2", _interval, [0.0, 0.0]),
            )
        rows = fam == "piecewise"  # a list of control vectors, not one
        key = "values" if rows else "value"
        u = _convert(key, _required(spec, key), _vector)
        if u.ndim != 1 + rows or u.shape[-1] != m:
            what = "a list of control vectors" if rows else "a control vector"
            raise ConfigError(f"{key} must be {what} of length {m}, not {spec[key]!r}")
        check_array(key, spec[key])
        if not rows:
            return ConstantControl(u)
        return PiecewiseConstantControl(u, _required(spec, "dt"), spec.get("t0", 0.0))


def cmd_reach(args, cfg) -> int:
    section = dict(cfg.get("reach", {}))
    _check_keys(section, _REACH_KEYS, "reach")
    sys_name = cfg.get("system", "unicycle")
    system = _system(sys_name)
    # the excitation starts and is spaced as the system's closed-loop preset's
    preset = experiment_for(sys_name)
    sample_dt = preset.dt

    with _config_errors():
        dt = check_positive("dt", section.get("dt", min(0.02, sample_dt)))
        steps = check_count("steps", section.get("steps", 200), 1)
        init_len = check_count("init_len", section.get("init_len", 15), 1)
        seed = check_count("seed", section.get("seed", 2) if args.seed is None else args.seed, 0)

    limit = max_step_size(system.lip, system.U)
    if not dt < limit:
        raise StepTooLarge(dt, limit)

    side = system.side
    if "side_level" in section:
        level = section["side_level"]
        if sys_name == "unicycle":
            settings = unicycle_knowledge_settings()
        else:
            settings = {"lipschitz_only": SideInfoSet()}
        settings["full"] = system.side
        if not isinstance(level, str) or level not in settings:
            raise ConfigError(f"side_level must be one of {sorted(settings)}, not {level!r}")
        side = settings[level]

    if "trajectory" in section:
        samples, n, m = dio.read_trajectory_csv(section["trajectory"])
        if not samples:
            raise ConfigError(f"trajectory {section['trajectory']} holds no samples")
        if (n, m) != (system.n, system.m):
            raise ConfigError("trajectory dimensions do not match the system")
    else:
        x0 = _setting(section, "x0", _vector, preset.x0)
        with _config_errors():
            samples = excite(system, init_len, seed, dt=sample_dt, x0=x0,
                             mode=section.get("excitation", "mixed"))

    t_ref = samples[-1].t + sample_dt if samples[-1].t is not None else init_len * sample_dt
    default_family = (
        {} if sys_name == "unicycle"
        else {"family": "constant", "value": system.U.mid.tolist()}
    )
    ctrl = _build_control_family(section.get("control", default_family), t_ref, system.m)

    kb = build_knowledge(samples, system.lip, side)
    stop = "settled" if kb.residual < FIXPOINT_TOL else "stopped at max_fixpoint_iters"
    print(f"knowledge base: {kb.xs.shape[0]} entries, {kb.passes} passes, "
          f"residual {kb.residual:.3g} ({stop})")
    x_start = advance(system, samples[-1].x, samples[-1].u, sample_dt)
    domain = system.X if _setting(section, "intersect_domain", _flag, True) else None
    tube = datareach(kb, x_start, ctrl, dt, steps, t0=t_ref, domain=domain)
    if tube.failure is not None:
        print(f"reach: {tube.failure}", file=_sys.stderr)
        return EXIT_STEP if "StepTooLarge" in tube.failure else EXIT_DATA

    out = _outdir(args, cfg)
    path = out / f"tube_{sys_name}.csv"
    dio.write_tube_csv(path, tube)
    widths = tube.terminal_width()
    print(f"tube written to {path} ({len(tube.steps)} rows)")
    print("terminal widths:", " ".join(f"{w:.6g}" for w in widths))
    cut = tube.clipped
    first = f", first at step {cut[0]} (t={tube.steps[cut[0]].t:.6g})" if cut else ""
    print(f"domain clipped {len(cut)} of {steps} steps{first}")
    return EXIT_OK


def _apply_control_overrides(exp: ExperimentConfig, section, args):
    """The preset with the section's settings; `check_experiment` checks them."""
    for key in ("init_len", "max_steps", "seed"):
        if key in section:
            setattr(exp, key, _convert(key, section[key], _integer))
    for key in ("dt", "stop_level", "eps", "mu0", "excitation", "x0", "mode"):
        if key in section:
            setattr(exp, key, section[key])
    if "weights" in section:
        if section["weights"] == "random":
            exp.redraw_weights = True
        else:
            exp.weights = section["weights"]
    if args.seed is not None:
        exp.seed = args.seed
    if args.mode is not None:
        exp.mode = args.mode
    return exp


def cmd_control(args, cfg) -> int:
    section = dict(cfg.get("control", {}))
    _check_keys(section, _CONTROL_KEYS, "control")
    sys_name = cfg.get("system", "unicycle")
    system = _system(sys_name)
    exp = _apply_control_overrides(experiment_for(sys_name), section, args)
    record_reach = _setting(section, "record_reach", _flag, False)
    with _config_errors():
        check_experiment(system, exp)

    report = run_closed_loop(system, exp)
    out = _outdir(args, cfg)
    dio.write_steps_csv(out / f"steps_{sys_name}.csv", report)
    dio.write_run_json(out / f"run_{sys_name}.json", report)
    if record_reach:
        dio.write_predicted_boxes_csv(out / f"reach_{sys_name}.csv", report)
    print(
        f"{sys_name} [{exp.mode}] reached={report.reached} "
        f"steps={report.steps_taken} cum_cost={report.cum_cost:.4g} "
        f"mean_step={report.mean_step_micros:.0f}us "
        f"max_total={report.max_total_micros:.0f}us overruns={report.overruns} (dt={exp.dt:g}s)"
    )
    return EXIT_OK if report.failure is None else EXIT_DATA


def cmd_benchmark(args, cfg) -> int:
    section = dict(cfg.get("benchmark", {}))
    _check_keys(section, _BENCH_KEYS, "benchmark")
    systems = _list_setting(section, "systems", ["unicycle", "quadrotor", "aircraft"])
    modes = _list_setting(section, "modes", ["idealistic", "optimistic"])
    seeds = _list_setting(section, "seeds", [args.seed if args.seed is not None else 1])
    seeds = [_convert("seeds", seed, _integer) for seed in seeds]
    max_steps = _setting(section, "max_steps", _integer, 5)

    runs = []
    for name, mode, seed in itertools.product(systems, modes, seeds):
        system = _system(name)
        exp = experiment_for(name, seed=seed, mode=mode)
        exp.max_steps = max_steps
        with _config_errors():
            check_experiment(system, exp)
        runs.append((name, system, exp))

    rows = []
    for name, system, exp in runs:
        report = run_closed_loop(system, exp)
        bounds = [log.bound for log in report.logs]
        rows.append({
            "system": name,
            "mode": exp.mode,
            "seed": exp.seed,
            "reached": report.reached,
            "steps": report.steps_taken,
            "cum_cost": f"{report.cum_cost:.8g}",
            "mean_micros": f"{report.mean_step_micros:.1f}",
            "max_micros": f"{report.max_step_micros:.1f}",
            "bound_mean": f"{float(np.mean(bounds)):.8g}" if bounds else "",
            "bound_max": f"{float(np.max(bounds)):.8g}" if bounds else "",
        })

    out = _outdir(args, cfg)
    path = out / "benchmark.csv"
    dio.write_benchmark_csv(path, rows)
    for row in rows:
        print(
            f"{row['system']:<10} {row['mode']:<12} seed={row['seed']} "
            f"reached={row['reached']} steps={row['steps']} "
            f"cum_cost={row['cum_cost']} mean={row['mean_micros']}us"
        )
    print(f"benchmark table written to {path}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="datareach",
        description="Data-driven reachability and one-step control for unknown "
        "control-affine systems",
    )
    parser.add_argument("--config", help="YAML configuration file")
    parser.add_argument("--out", help="output directory (default: ./out)")
    parser.add_argument("--seed", type=int, help="override the configured seed")
    parser.add_argument(
        "--mode", choices=MODES, help="relaxation to solve"
    )
    handlers = {"reach": cmd_reach, "control": cmd_control, "benchmark": cmd_benchmark}
    sub = parser.add_subparsers(dest="command", required=True)
    for name in handlers:
        sub.add_parser(name)
    args = parser.parse_args(argv)

    try:
        cfg = _load_config(args.config)
        return handlers[args.command](args, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return EXIT_CONFIG
    except StepTooLarge as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_STEP
    except (InconsistentSample, EmptyIntersection) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    raise SystemExit(main())
