import csv
import json
import math
import re

import numpy as np
import pytest
import yaml

from datareach import cli
from datareach import io as dio
from datareach.reach import max_step_size
from datareach.systems import aircraft, excite, unicycle


def write_cfg(tmp_path, data):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(data))
    return str(path)


class TestConfigHandling:
    def test_unknown_section_key_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, {"system": "unicycle",
                                   "reach": {"dt": 0.02, "bogus": 1}})
        assert cli.main(["--config", cfg, "reach"]) == cli.EXIT_CONFIG

    def test_unknown_top_level_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, {"system": "unicycle", "wat": {}})
        assert cli.main(["--config", cfg, "reach"]) == cli.EXIT_CONFIG

    def test_missing_config_file(self, tmp_path):
        assert cli.main(["--config", str(tmp_path / "nope.yaml"), "reach"]) \
            == cli.EXIT_CONFIG

    def test_invalid_yaml_rejected(self, tmp_path, capsys):
        path = tmp_path / "cfg.yaml"
        path.write_text("reach: [1, 2\n")
        assert cli.main(["--config", str(path), "reach"]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot read config: ") and "line 1" in err


class TestReachCommand:
    def test_small_tube(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "system": "unicycle",
            "out": str(tmp_path / "out"),
            "reach": {"dt": 0.02, "steps": 10, "init_len": 8, "seed": 2,
                      "control": {"family": "const_cos",
                                  "a1": [-0.1, 0.1], "a2": [-0.01, 0.01]}},
        })
        assert cli.main(["--config", cfg, "reach"]) == 0
        path = tmp_path / "out" / "tube_unicycle.csv"
        assert path.exists()
        ts, R_lo, R_hi, S_lo, S_hi, beta = dio.read_tube_csv(path)
        assert len(ts) == 11
        assert np.all(R_lo <= R_hi)
        assert np.all(S_lo <= R_lo + 1e-12) and np.all(R_hi <= S_hi + 1e-12)

    def test_step_too_large_exit_code(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "system": "unicycle",
            "out": str(tmp_path / "out"),
            "reach": {"dt": 0.2, "steps": 5},
        })
        assert cli.main(["--config", cfg, "reach"]) == cli.EXIT_STEP

    def test_diverging_tube_is_a_data_error(self, tmp_path, capsys):
        """An aircraft tube with no domain that grows past errors.LIMIT."""
        sysa = aircraft()
        cfg = write_cfg(tmp_path, {
            "system": "aircraft",
            "out": str(tmp_path / "out"),
            "reach": {"dt": 0.5 * max_step_size(sysa.lip, sysa.U), "steps": 1171,
                      "init_len": 15, "seed": 4, "intersect_domain": False},
        })
        assert cli.main(["--config", cfg, "reach"]) == cli.EXIT_DATA
        assert "reach: DataReachError: the tube diverged" in capsys.readouterr().err

    def test_trajectory_ingestion_roundtrip(self, tmp_path):
        sysu = unicycle()
        samples = excite(sysu, 6, seed=2, dt=0.1, x0=[-2.0, -2.5, math.pi / 2])
        traj_path = tmp_path / "traj.csv"
        dio.write_trajectory_csv(traj_path, samples)
        back, n, m = dio.read_trajectory_csv(traj_path)
        assert (n, m) == (3, 2)
        for s0, s1 in zip(samples, back):
            assert np.allclose(s0.x, s1.x, atol=1e-12)
            assert np.allclose(s0.xdot, s1.xdot, atol=1e-12)
            assert np.allclose(s0.u, s1.u, atol=1e-12)
        cfg = write_cfg(tmp_path, {
            "system": "unicycle",
            "out": str(tmp_path / "out"),
            "reach": {"dt": 0.02, "steps": 5, "trajectory": str(traj_path),
                      "control": {"family": "constant", "value": [0.5, 0.1]}},
        })
        assert cli.main(["--config", cfg, "reach"]) == 0


class TestControlCommand:
    def test_summary_and_csv(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "system": "unicycle",
            "out": str(tmp_path / "out"),
            "control": {"max_steps": 5, "seed": 4},
        })
        assert cli.main(["--config", cfg, "control"]) == 0
        steps = tmp_path / "out" / "steps_unicycle.csv"
        summary = tmp_path / "out" / "run_unicycle.json"
        assert steps.exists() and summary.exists()
        header, rows = dio.read_steps_csv(steps)
        assert header[:2] == ["i", "t"]
        assert rows.shape[0] == 5
        assert header[-1] == "kb_micros"
        assert np.all(rows[:, header.index("kb_micros")] > 0)
        data = json.loads(summary.read_text())
        assert data["system"] == "unicycle"
        assert data["steps_taken"] == 5

    def test_seed_override_changes_run(self, tmp_path):
        out1 = tmp_path / "o1"
        out2 = tmp_path / "o2"
        cfg = {"system": "unicycle", "control": {"max_steps": 4, "seed": 4}}
        c1 = write_cfg(tmp_path, {**cfg, "out": str(out1)})
        assert cli.main(["--config", c1, "control"]) == 0
        c2 = write_cfg(tmp_path, {**cfg, "out": str(out2)})
        assert cli.main(["--config", c2, "--seed", "9", "control"]) == 0
        r1 = json.loads((out1 / "run_unicycle.json").read_text())
        r2 = json.loads((out2 / "run_unicycle.json").read_text())
        assert r1["seed"] == 4 and r2["seed"] == 9
        assert r1["final_state"] != r2["final_state"]

    def test_step_too_large_exit_code(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "system": "unicycle",
            "out": str(tmp_path / "out"),
            "control": {"dt": 0.2, "max_steps": 2},
        })
        assert cli.main(["--config", cfg, "control"]) == cli.EXIT_STEP

    def test_max_steps_zero(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "system": "unicycle",
            "out": str(tmp_path / "out"),
            "control": {"max_steps": 0},
        })
        assert cli.main(["--config", cfg, "control"]) == 0
        data = json.loads((tmp_path / "out" / "run_unicycle.json").read_text())
        assert data["reached"] is False and data["steps_taken"] == 0


class TestControlSettings:
    """Settings `run_closed_loop` cannot run are config errors (exit 2)."""

    @pytest.mark.parametrize(
        "setting",
        [
            {"weights": [2, 0.5]},
            {"mode": "bogus"},
            {"excitation": "sweep"},
            {"init_len": 0},
            {"max_steps": -1},
            {"eps": 0.0},
            {"x0": [0.0, 0.0]},
            {"dt": -0.1},
            {"seed": -1},
            {"eps": math.inf},
            {"mu0": math.inf},
            {"stop_level": math.nan},
            {"x0": [math.nan, 0.0, 0.0]},
            {"x0": [math.inf, 0.0, 0.0]},
        ],
        ids=["weights", "mode", "excitation", "init_len", "max_steps", "eps", "x0", "dt",
             "seed_negative", "eps_inf", "mu0_inf", "stop_level_nan", "x0_nan", "x0_inf"],
    )
    def test_bad_setting_rejected(self, tmp_path, setting):
        cfg = write_cfg(tmp_path, {
            "system": "unicycle",
            "out": str(tmp_path / "out"),
            "control": {"max_steps": 3, **setting},
        })
        assert cli.main(["--config", cfg, "control"]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize(
        "key, value",
        [("init_len", "abc"), ("eps", "small"), ("seed", "x"), ("dt", [0.1]),
         ("x0", ["a", 0.0, 0.0]), ("weights", [0.5, "half"]), ("record_reach", "false"),
         ("record_reach", 1), ("max_steps", 2.5), ("init_len", 3.7),
         ("seed", True), ("max_steps", True)],
        ids=["init_len", "eps", "seed", "dt", "x0", "weights", "record_reach_text",
             "record_reach_int", "max_steps_fraction", "init_len_fraction",
             "seed_bool", "max_steps_bool"],
    )
    def test_non_numeric_setting_names_key(self, tmp_path, capsys, key, value):
        cfg = write_cfg(tmp_path, {
            "system": "unicycle",
            "out": str(tmp_path / "out"),
            "control": {"max_steps": 3, key: value},
        })
        assert cli.main(["--config", cfg, "control"]) == cli.EXIT_CONFIG
        assert f"config error: {key} must be" in capsys.readouterr().err

    def test_numerical_failure_is_not_a_config_error(self, tmp_path, monkeypatch):
        def singular(system, exp):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(cli, "run_closed_loop", singular)
        cfg = write_cfg(tmp_path, {
            "system": "unicycle",
            "out": str(tmp_path / "out"),
            "control": {"max_steps": 3},
        })
        with pytest.raises(np.linalg.LinAlgError):
            cli.main(["--config", cfg, "control"])


class TestReachSettings:
    """`reach` rejects settings it cannot run before doing any work (exit 2)."""

    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"excitation": "sweep"}, "excitation must be one of"),
            ({"dt": -0.02}, "dt must be positive"),
            ({"dt": 0.0}, "dt must be positive"),
            ({"steps": -5}, "steps must be >= 1"),
            ({"steps": 0}, "steps must be >= 1"),
            ({"init_len": 0}, "init_len must be >= 1"),
            ({"steps": "many"}, "steps must be an integer, not 'many'"),
            ({"init_len": "abc"}, "init_len must be an integer, not 'abc'"),
            ({"dt": "fast"}, "dt must be positive and finite, not 'fast'"),
            ({"seed": [1]}, "seed must be an integer"),
            ({"x0": "origin"}, "x0 must be a list of numbers"),
            ({"intersect_domain": "false"}, "intersect_domain must be true or false, not 'false'"),
            ({"intersect_domain": 0}, "intersect_domain must be true or false, not 0"),
            ({"control": {"family": "constant"}}, "control family 'constant' needs value"),
            ({"control": {"family": "piecewise", "values": [[1, 0]]}},
             "control family 'piecewise' needs dt"),
            ({"control": {"family": "const_cos", "v0": "fast"}},
             "control v0 must be numeric, not 'fast'"),
            ({"control": {"family": "constant", "value": [1, 0, 0]}},
             "value must be a control vector of length 2, not [1, 0, 0]"),
            ({"control": {"family": "piecewise", "values": [1, 0], "dt": 0.5}},
             "values must be a list of control vectors of length 2"),
            ({"control": {"family": "const_cos", "a1": [1]}}, "a1 must be a [lo, hi] pair, not [1]"),
            ({"control": {"family": "const_cos", "a2": [0.1, -0.1]}}, "a2 must be a [lo, hi] pair"),
            ({"control": {"family": "const_cos", "bogus": 3}},
             "unknown keys in [reach.control, family const_cos]: ['bogus']"),
            ({"control": {"family": "constant", "value": [1, 0], "v0": 1.0}},
             "unknown keys in [reach.control, family constant]: ['v0']"),
            ({"control": {"family": "piecewise", "values": [[1, 0]], "dt": 0.0}},
             "control dt must be positive"),
            ({"control": {"family": "sine"}}, "unknown control family 'sine'"),
            ({"control": 3}, "reach.control must be a mapping, not 3"),
            ({"seed": -1}, "seed must be >= 0"),
            ({"x0": [1, 2]}, "x0 must have shape (3,), not (2,)"),
            ({"side_level": ["x"]}, "side_level must be one of ['decoupled', "),
            ({"trajectory": 7}, "trajectory must be a file path, not 7"),
            ({"steps": 2.5}, "steps must be an integer, not 2.5"),
            ({"steps": True}, "steps must be an integer, not True"),
            ({"init_len": 3.7}, "init_len must be an integer, not 3.7"),
            ({"seed": 2.5}, "seed must be an integer, not 2.5"),
            ({"control": {"omega": math.nan}}, "control omega must be finite, not nan"),
            ({"control": {"v0": math.inf}}, "control v0 must be finite, not inf"),
            ({"control": {"a1": [-math.inf, math.inf]}},
             "control a1 and a2 must be finite, not [-inf, inf, 0.0, 0.0]"),
            ({"control": {"t_ref": math.inf}}, "control t_ref must be finite, not inf"),
            ({"control": {"family": "constant", "value": [math.nan, 0]}},
             "value must be finite, not [nan, 0]"),
            ({"x0": [math.nan, 0.0, 0.0]}, "x0 must be finite, not [nan, 0.0, 0.0]"),
        ],
        ids=["excitation", "dt_negative", "dt_zero", "steps_negative", "steps_zero",
             "init_len", "steps_text", "init_len_text", "dt_text", "seed_list", "x0_text",
             "intersect_domain_text", "intersect_domain_int", "constant_no_value",
             "piecewise_no_dt", "v0_text", "value_length", "values_flat", "a1_single",
             "a2_inverted", "family_unknown_key", "family_other_key", "control_dt_zero",
             "family_unknown", "control_not_a_mapping", "seed_negative", "x0_length",
             "side_level_list", "trajectory_int", "steps_fraction", "steps_bool",
             "init_len_fraction", "seed_fraction", "omega_nan", "v0_inf", "a1_infinite",
             "t_ref_inf", "value_nan", "x0_nan"],
    )
    def test_bad_setting_rejected(self, tmp_path, capsys, setting, message):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, {
            "system": "unicycle",
            "out": str(out),
            "reach": {"dt": 0.02, "steps": 5, "init_len": 8, **setting},
        })
        assert cli.main(["--config", cfg, "reach"]) == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "setting",
        [{"control": {"family": "constant", "value": [1.0, 0.0]}},
         {"control": {"family": "piecewise", "values": [[1.0, 0.0], [1.0, 0.5]],
                      "dt": 0.02, "t0": 1.0}},
         {"intersect_domain": False},
         {"steps": 3.0, "seed": 2.0}],
        ids=["constant", "piecewise", "no_domain", "whole_floats"],
    )
    def test_valid_setting_runs(self, tmp_path, setting):
        cfg = write_cfg(tmp_path, {
            "system": "unicycle",
            "out": str(tmp_path / "out"),
            "reach": {"dt": 0.02, "steps": 3, "init_len": 5, **setting},
        })
        assert cli.main(["--config", cfg, "reach"]) == 0
        assert (tmp_path / "out" / "tube_unicycle.csv").exists()

    @pytest.mark.parametrize("command", ["reach", "control"])
    def test_negative_seed_flag_rejected(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, {
            "system": "unicycle",
            "out": str(out),
            "reach": {"dt": 0.02, "steps": 3, "init_len": 5},
            "control": {"max_steps": 3},
        })
        assert cli.main(["--config", cfg, "--seed", "-1", command]) == cli.EXIT_CONFIG
        assert "config error: seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()


def _contract_cases():
    """(command, section, key, value) for every numeric key of `reach` and
    `control` and the bad values of test_contract.py.  A whole number is not
    set to 1e308, a valid request that never ends, and a number not to 2.5,
    a valid value; a list key is set to True whole and to each bad number in
    its first entry."""
    numbers, counts = [math.inf, math.nan, 1e308, True], [math.inf, math.nan, True, 2.5]

    def listed(first, rest):
        return [True] + [[v if isinstance(first, float) else [v, *first[1:]], *rest]
                         for v in numbers[:3]]

    keys = {
        ("reach", None): {"dt": numbers, "steps": counts, "init_len": counts, "seed": counts,
                          "x0": listed(0.0, [0.0, 0.0])},
        ("reach", "const_cos"): {"v0": numbers, "omega": numbers, "t_ref": numbers},
        ("reach", "constant"): {"value": listed(1.0, [0.0])},
        ("reach", "piecewise"): {"values": listed([1.0, 0.0], []), "dt": numbers,
                                 "t0": numbers},
        ("control", None): {"dt": numbers, "stop_level": numbers, "eps": numbers,
                            "mu0": numbers, "init_len": counts, "max_steps": counts,
                            "seed": counts, "x0": listed(0.0, [0.0, 0.0]),
                            "weights": listed(0.5, [0.5])},
    }
    return [(command, family, key, value) for (command, family), values in keys.items()
            for key, bad in values.items() for value in bad]


class TestContractValues:
    """Each bad value of a numeric key exits 2 with a message naming the key."""

    @pytest.mark.parametrize("command, family, key, value", _contract_cases())
    def test_rejected_naming_the_key(self, tmp_path, capsys, command, family, key, value):
        out = tmp_path / "out"
        section = {"reach": {"dt": 0.02, "steps": 3, "init_len": 5},
                   "control": {"max_steps": 3}}[command]
        if family is None:
            section[key] = value
        else:
            section["control"] = {"family": family, "value": [1.0, 0.0],
                                  "values": [[1.0, 0.0]], "dt": 0.5, key: value}
            if family != "constant":
                del section["control"]["value"]
            if family != "piecewise":
                del section["control"]["values"], section["control"]["dt"]
        cfg = write_cfg(tmp_path, {"system": "unicycle", "out": str(out), command: section})
        assert cli.main(["--config", cfg, command]) == cli.EXIT_CONFIG
        assert re.match(rf"config error: (control )?{key} must", capsys.readouterr().err)
        assert not out.exists()


class TestModuleEntryPoint:
    def test_python_dash_m_runs_reach(self, tmp_path):
        import os
        import subprocess
        import sys
        from pathlib import Path

        cfg = write_cfg(tmp_path, {
            "system": "unicycle",
            "out": str(tmp_path / "out"),
            "reach": {"steps": 2, "init_len": 3},
        })
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "datareach", "--config", cfg, "reach"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert "(3 rows)" in done.stdout
        assert (tmp_path / "out" / "tube_unicycle.csv").exists()


class TestBenchmarkCommand:
    def test_smoke_sweep(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "system": "unicycle",
            "out": str(tmp_path / "out"),
            "benchmark": {"max_steps": 2, "systems": ["unicycle"],
                          "modes": ["idealistic"], "seeds": [4, 5]},
        })
        assert cli.main(["--config", cfg, "benchmark"]) == 0
        path = tmp_path / "out" / "benchmark.csv"
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert {r["seed"] for r in rows} == {"4", "5"}

    def test_identical_seeds_identical_tables(self, tmp_path):
        rows = []
        for sub in ("a", "b"):
            cfg = write_cfg(tmp_path, {
                "system": "unicycle",
                "out": str(tmp_path / sub),
                "benchmark": {"max_steps": 2, "systems": ["unicycle"],
                              "modes": ["idealistic"], "seeds": [4]},
            })
            assert cli.main(["--config", cfg, "benchmark"]) == 0
            with open(tmp_path / sub / "benchmark.csv") as fh:
                raw = fh.read()
            # wall-clock columns differ run to run; strip them
            rows.append([r.rsplit(",", 4)[0] for r in raw.splitlines()])
        assert rows[0] == rows[1]


class TestTubeCsvRoundTrip:
    def test_values_roundtrip_exactly(self, tmp_path):
        from datareach.intervals import Interval
        from datareach.knowledge import build_knowledge
        from datareach.reach import ConstCosControl, datareach
        from datareach.systems import advance

        sysu = unicycle()
        samples = excite(sysu, 8, seed=2, dt=0.1, x0=[-2.0, -2.5, math.pi / 2])
        kb = build_knowledge(samples, sysu.lip, sysu.side)
        x_start = advance(sysu, samples[-1].x, samples[-1].u, 0.1)
        ctrl = ConstCosControl(t_ref=0.8, a1=Interval(-0.1, 0.1),
                               a2=Interval(-0.01, 0.01))
        tube = datareach(kb, x_start, ctrl, 0.02, 12, t0=0.8)
        path = tmp_path / "tube.csv"
        dio.write_tube_csv(path, tube)
        ts, R_lo, R_hi, S_lo, S_hi, beta = dio.read_tube_csv(path)
        for i, rec in enumerate(tube.steps):
            assert ts[i] == pytest.approx(rec.t, abs=1e-12)
            assert np.allclose(R_lo[i], rec.R.lo, rtol=0, atol=1e-12)
            assert np.allclose(R_hi[i], rec.R.hi, rtol=0, atol=1e-12)
            assert np.allclose(S_lo[i], rec.S.lo, rtol=0, atol=1e-12)
            assert beta[i] == pytest.approx(rec.beta, abs=1e-12)


class TestReachRecording:
    def test_predicted_box_csv(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "system": "unicycle",
            "out": str(tmp_path / "out"),
            "control": {"max_steps": 4, "seed": 4, "record_reach": True},
        })
        assert cli.main(["--config", cfg, "control"]) == 0
        path = tmp_path / "out" / "reach_unicycle.csv"
        assert path.exists()
        with open(path) as fh:
            lines = fh.read().splitlines()
        assert lines[0].split(",")[:2] == ["i", "t"]
        assert len(lines) == 5

    def test_no_boxes_when_record_reach_false(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "system": "unicycle",
            "out": str(tmp_path / "out"),
            "control": {"max_steps": 2, "seed": 4, "record_reach": False},
        })
        assert cli.main(["--config", cfg, "control"]) == 0
        assert (tmp_path / "out" / "steps_unicycle.csv").exists()
        assert not (tmp_path / "out" / "reach_unicycle.csv").exists()


class TestBenchmarkBudget:
    def test_full_smoke_sweep_under_10s(self, tmp_path):
        import time

        cfg = write_cfg(tmp_path, {
            "system": "unicycle",
            "out": str(tmp_path / "out"),
            "benchmark": {"max_steps": 5},
        })
        t0 = time.perf_counter()
        assert cli.main(["--config", cfg, "benchmark"]) == 0
        assert time.perf_counter() - t0 < 10.0


class TestInconsistentDataExit:
    def test_contradictory_trajectory_exits_4(self, tmp_path):
        # a sample whose derivative cannot be explained by any dynamics
        # within the declared Lipschitz bounds around the other samples
        sysu = unicycle()
        samples = excite(sysu, 5, seed=2, dt=0.1, x0=[-2.0, -2.5, math.pi / 2])
        bad = samples[-1]
        from datareach.knowledge import Sample as S

        samples[-1] = S(bad.x, bad.xdot + 50.0, bad.u, bad.t)
        traj_path = tmp_path / "bad.csv"
        dio.write_trajectory_csv(traj_path, samples)
        cfg = write_cfg(tmp_path, {
            "system": "unicycle",
            "out": str(tmp_path / "out"),
            "reach": {"dt": 0.02, "steps": 3, "trajectory": str(traj_path),
                      "control": {"family": "constant", "value": [0.5, 0.1]}},
        })
        assert cli.main(["--config", cfg, "reach"]) == cli.EXIT_DATA


class TestWeightsConfig:
    def test_fixed_weights_pair(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "system": "unicycle",
            "out": str(tmp_path / "out"),
            "control": {"max_steps": 3, "seed": 4, "weights": [0.25, 0.75]},
        })
        assert cli.main(["--config", cfg, "control"]) == 0

    def test_weights_random_keyword(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "system": "unicycle",
            "out": str(tmp_path / "out"),
            "control": {"max_steps": 3, "seed": 4, "weights": "random"},
        })
        assert cli.main(["--config", cfg, "control"]) == 0

    def test_bad_weights_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "system": "unicycle",
            "control": {"max_steps": 3, "weights": "sometimes"},
        })
        assert cli.main(["--config", cfg, "control"]) == cli.EXIT_CONFIG


class TestUnknownSystem:
    @pytest.mark.parametrize("command", ["reach", "control"])
    def test_unknown_system_is_a_config_error(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, {"system": "bogus", "out": str(out)})
        assert cli.main(["--config", cfg, command]) == cli.EXIT_CONFIG
        assert "unknown system 'bogus'" in capsys.readouterr().err
        assert not out.exists()


class TestBenchmarkSettings:
    """`benchmark` checks every setting and every experiment before any run."""

    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"seeds": 5}, "seeds must be a list, not 5"),
            ({"seeds": ["x"]}, "seeds must be an integer, not 'x'"),
            ({"systems": ["unicycle", "bogus"]}, "unknown system 'bogus'"),
            ({"systems": "unicycle"}, "systems must be a list"),
            ({"modes": ["idealistic", "weird"]}, "mode must be one of"),
            ({"max_steps": -1}, "max_steps must be >= 0"),
            ({"seeds": [1.5]}, "seeds must be an integer, not 1.5"),
            ({"max_steps": 2.5}, "max_steps must be an integer, not 2.5"),
            ({"max_steps": True}, "max_steps must be an integer, not True"),
        ],
        ids=["seeds_int", "seeds_text", "system", "systems_text", "mode", "max_steps",
             "seeds_fraction", "max_steps_fraction", "max_steps_bool"],
    )
    def test_bad_setting_rejected_before_any_run(self, tmp_path, capsys, monkeypatch,
                                                 setting, message):
        runs = []
        monkeypatch.setattr(cli, "run_closed_loop", lambda system, exp: runs.append(exp))
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, {
            "out": str(out),
            "benchmark": {"max_steps": 1, "systems": ["unicycle"],
                          "modes": ["idealistic"], "seeds": [1], **setting},
        })
        assert cli.main(["--config", cfg, "benchmark"]) == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert runs == [] and not out.exists()


class TestTrajectoryCsv:
    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda row: row[:3] + ["abc"] + row[4:], "could not convert string to float: 'abc'"),
            (lambda row: row[:-1], "8 values, expected 9"),
            (lambda row: row[:2] + ["nan"] + row[3:], "values must be finite"),
        ],
        ids=["non_numeric", "short_row", "non_finite"],
    )
    def test_bad_row_names_the_line(self, tmp_path, capsys, corrupt, message):
        sysu = unicycle()
        samples = excite(sysu, 4, seed=2, dt=0.1, x0=[-2.0, -2.5, math.pi / 2])
        path = tmp_path / "traj.csv"
        dio.write_trajectory_csv(path, samples)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        rows[2] = corrupt(rows[2])  # the second sample, on line 3
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)

        with pytest.raises(cli.ConfigError, match=f"line 3: {message}"):
            dio.read_trajectory_csv(path)
        cfg = write_cfg(tmp_path, {
            "system": "unicycle",
            "out": str(tmp_path / "out"),
            "reach": {"dt": 0.02, "steps": 3, "trajectory": str(path)},
        })
        assert cli.main(["--config", cfg, "reach"]) == cli.EXIT_CONFIG
        assert "line 3" in capsys.readouterr().err


    def test_writing_no_samples_names_them(self, tmp_path):
        path = tmp_path / "traj.csv"
        with pytest.raises(ValueError, match=r"^samples must hold at least one sample, not \[\]$"):
            dio.write_trajectory_csv(path, [])
        assert not path.exists()


BAD_ROWS = pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda row: row[:1] + ["abc"] + row[2:], "could not convert string to float: 'abc'"),
        (lambda row: row[:-1], "6 values, expected 7"),
    ],
    ids=["non_numeric", "short_row"],
)


def _csv_with_bad_line_3(path, header, corrupt):
    rows = [header] + [[str(i)] + [str(0.5 * i + k) for k in range(len(header) - 1)]
                       for i in range(3)]
    rows[2] = corrupt(rows[2])
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


class TestTubeAndStepsCsv:
    @BAD_ROWS
    def test_tube_bad_row_names_the_line(self, tmp_path, corrupt, message):
        path = tmp_path / "tube.csv"
        _csv_with_bad_line_3(path, ["i", "t", "lo_1", "hi_1", "S_lo_1", "S_hi_1", "beta"],
                             corrupt)
        with pytest.raises(cli.ConfigError, match=f"tube {path}, line 3: {message}"):
            dio.read_tube_csv(path)

    @BAD_ROWS
    def test_steps_bad_row_names_the_line(self, tmp_path, corrupt, message):
        path = tmp_path / "steps.csv"
        _csv_with_bad_line_3(path, ["i", "t", "u_1", "cost", "bound", "solver_iters",
                                    "micros"], corrupt)
        with pytest.raises(cli.ConfigError, match=f"steps {path}, line 3: {message}"):
            dio.read_steps_csv(path)


class TestUnreadableInputFiles:
    """A CSV that cannot be read is a config error naming the file (exit 2)."""

    @pytest.mark.parametrize(
        "content, message",
        [
            ("", "is empty"),
            ("t,x1,x2,x3,xdot1,xdot2,xdot3,u1,u2\n", "holds no samples"),
            (None, "cannot read trajectory"),
        ],
        ids=["empty", "header_only", "missing"],
    )
    def test_reach_trajectory(self, tmp_path, capsys, content, message):
        path = tmp_path / "traj.csv"
        if content is not None:
            path.write_text(content)
        out = tmp_path / "out"
        cfg = write_cfg(tmp_path, {
            "system": "unicycle",
            "out": str(out),
            "reach": {"dt": 0.02, "steps": 3, "trajectory": str(path)},
        })
        assert cli.main(["--config", cfg, "reach"]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err and str(path) in err
        assert not out.exists()

    @pytest.mark.parametrize("read, what", [
        (dio.read_trajectory_csv, "trajectory"),
        (dio.read_tube_csv, "tube"),
        (dio.read_steps_csv, "steps"),
    ], ids=["trajectory", "tube", "steps"])
    def test_empty_and_missing_files(self, tmp_path, read, what):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(cli.ConfigError, match=f"^{what} {path} is empty$"):
            read(path)
        with pytest.raises(cli.ConfigError, match=f"^cannot read {what} {path}.x: "):
            read(f"{path}.x")
        # an integer is not taken as a file descriptor
        with pytest.raises(cli.ConfigError, match=f"^{what} must be a file path, not 0$"):
            read(0)


def test_readme_config_documents_every_key(tmp_path):
    """The README's configuration example is valid and names every key."""
    from pathlib import Path

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    path = tmp_path / "readme.yaml"
    path.write_text(readme.split("```yaml\n", 1)[1].split("```", 1)[0])
    cfg = cli._load_config(str(path))
    for name, keys in (("reach", cli._REACH_KEYS), ("control", cli._CONTROL_KEYS),
                       ("benchmark", cli._BENCH_KEYS)):
        cli._check_keys(cfg[name], keys, name)
        assert sorted(keys - set(cfg[name])) == [], name
    # the active control block and the commented alternatives, one per family
    families = [cfg["reach"]["control"]] + [
        yaml.safe_load(line.split("# control:", 1)[1])
        for line in path.read_text().splitlines() if line.lstrip().startswith("# control:")
    ]
    for spec in families:
        cli._build_control_family(spec, 0.0, 2)
        assert set(spec) == cli._FAMILY_KEYS[spec["family"]], spec
    assert sorted(spec["family"] for spec in families) == sorted(cli._FAMILY_KEYS)


class TestReachDefaults:
    """`reach` with no reach section excites from the system's control preset."""

    @pytest.mark.parametrize("system", ["quadrotor", "aircraft"])
    def test_runs_on_every_preset(self, tmp_path, system):
        cfg = write_cfg(tmp_path, {"system": system, "out": str(tmp_path / "out")})
        assert cli.main(["--config", cfg, "reach"]) == cli.EXIT_OK
        ts = dio.read_tube_csv(tmp_path / "out" / f"tube_{system}.csv")[0]
        assert len(ts) == 201

    def test_unicycle_tube_unchanged(self, tmp_path):
        """The unicycle's default tube, pinned byte for byte: its preset start
        and spacing are the old defaults, and the file moves only with the
        knowledge base's bits."""
        import hashlib

        cfg = write_cfg(tmp_path, {"system": "unicycle", "out": str(tmp_path / "out")})
        assert cli.main(["--config", cfg, "reach"]) == cli.EXIT_OK
        data = (tmp_path / "out" / "tube_unicycle.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == (
            "3abf9a9a2107ac8bdc6dbc866c07eb9b79e7c84b8da44444afbc37156f864501")


    @pytest.mark.parametrize("init_len, stop", [(15, "settled"),
                                                 (60, "stopped at max_fixpoint_iters")])
    def test_reports_the_build(self, tmp_path, capsys, init_len, stop):
        """`reach` prints the base's size, its invariance passes and residual,
        and whether the build settled or stopped at the pass cap."""
        from datareach.knowledge import build_knowledge
        from datareach.systems import experiment_for

        cfg = write_cfg(tmp_path, {"system": "unicycle", "out": str(tmp_path / "out"),
                                   "reach": {"init_len": init_len}})
        assert cli.main(["--config", cfg, "reach"]) == cli.EXIT_OK
        sysu, preset = unicycle(), experiment_for("unicycle")
        kb = build_knowledge(excite(sysu, init_len, 2, dt=preset.dt, x0=preset.x0),
                             sysu.lip, sysu.side)
        assert (kb.passes == 50) == (stop != "settled")
        line = (f"knowledge base: {init_len + 1} entries, {kb.passes} passes, "
                f"residual {kb.residual:.3g} ({stop})")
        assert line in capsys.readouterr().out.splitlines()

    @pytest.mark.parametrize("system", ["unicycle", "quadrotor"])
    def test_reports_domain_clips(self, tmp_path, capsys, system):
        """`reach` prints how many steps the domain cut and the first one."""
        from conftest import quadrotor_default_tube

        cfg = write_cfg(tmp_path, {"system": system, "out": str(tmp_path / "out")})
        assert cli.main(["--config", cfg, "reach"]) == cli.EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        if system == "unicycle":
            assert "domain clipped 0 of 200 steps" in lines
            return
        tube = quadrotor_default_tube()[0]
        cut = tube.clipped
        assert len(cut) > 0
        assert (f"domain clipped {len(cut)} of 200 steps, first at step {cut[0]} "
                f"(t={tube.steps[cut[0]].t:.6g})") in lines


def test_control_line_reports_latency_against_dt(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"system": "unicycle", "out": str(tmp_path / "out"),
                               "control": {"max_steps": 3}})
    assert cli.main(["--config", cfg, "control"]) == cli.EXIT_OK
    line = capsys.readouterr().out.strip()
    assert " max_total=" in line and " overruns=" in line and line.endswith("(dt=0.1s)")
    data = json.loads((tmp_path / "out" / "run_unicycle.json").read_text())
    assert data["dt"] == 0.1 and isinstance(data["overruns"], int)
    assert data["max_total_micros"] >= data["max_step_micros"] > 0


def _shipped_configs():
    from pathlib import Path

    return sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.yaml"))


@pytest.mark.parametrize("path", _shipped_configs(), ids=lambda p: p.name)
def test_shipped_config_runs(tmp_path, path):
    """Each file in configs/ runs the command it has a section for."""
    sections = yaml.safe_load(path.read_text())
    commands = [c for c in ("reach", "control", "benchmark") if c in sections]
    assert commands, path.name
    for command in commands:
        out = tmp_path / command
        assert cli.main(["--config", str(path), "--out", str(out), command]) == cli.EXIT_OK
        assert any(out.iterdir())


def test_configs_are_found():
    """The parametrization above is not empty."""
    assert len(_shipped_configs()) >= 2
