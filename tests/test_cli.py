import csv
import json
import math
import numpy as np
import pytest
import yaml

from datareach import cli
from datareach import io as dio
from datareach.systems import excite, unicycle


def write_cfg(tmp_path, data):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(data))
    return str(path)


class TestSelftest:
    def test_selftest_passes(self, capsys):
        assert cli.main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") == 3

    def test_selftest_detects_corruption(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_selftest_contraction", lambda: False)
        assert cli.main(["selftest"]) == 1
        assert "[FAIL]" in capsys.readouterr().out


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

    def test_refresh_every_zero_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "system": "unicycle",
            "out": str(tmp_path / "out"),
            "control": {"max_steps": 3, "refresh_every": 0},
        })
        assert cli.main(["--config", cfg, "control"]) == cli.EXIT_CONFIG

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
        ],
        ids=["weights", "mode", "excitation", "init_len", "max_steps", "eps", "x0", "dt"],
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
         ("x0", ["a", 0.0, 0.0]), ("weights", [0.5, "half"])],
        ids=["init_len", "eps", "seed", "dt", "x0", "weights"],
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
            ({"dt": "fast"}, "dt must be a number, not 'fast'"),
            ({"seed": [1]}, "seed must be an integer"),
            ({"x0": "origin"}, "x0 must be a list of numbers"),
        ],
        ids=["excitation", "dt_negative", "dt_zero", "steps_negative", "steps_zero",
             "init_len", "steps_text", "init_len_text", "dt_text", "seed_list", "x0_text"],
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


class TestModuleEntryPoint:
    def test_python_dash_m_runs_selftest(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "datareach", "selftest"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.count("[PASS]") == 3


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
