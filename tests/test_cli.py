import json
import math
import os
import pathlib
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import proxflow
from proxflow.cli import build_parser, main
from proxflow.config import parse_config
from proxflow.errors import ConfigError, ValidationError
from proxflow.experiments import lemma_checks
from proxflow.geometry_checks import check_trace_inequality
from proxflow.matrices import SpdMatrix, sqrt_spd
from proxflow.rng import GaussianStream
from support import random_spd

REPO = pathlib.Path(__file__).resolve().parent.parent
CONFIG_LIMIT = 2**20  # characters a config may hold

PROPAGATION_CONFIG = {
    "system": {"A": [[-1.0]], "B": [[1.0]]},
    "initial": {"mean": [2.0], "cov": [[2.0]]},
    "steps": {"h": [0.04, 0.02, 0.01, 0.005], "horizon": 1.0, "beta": 1.0},
    "seeds": [],
    "mode": {"task": "propagation", "propagation": "symmetric-exact"},
}

FILTER_CONFIG = {
    "system": {"A": [[-1.0]], "B": [[1.0]]},
    "measurement": {"C": [[1.0]], "R": [[1.0]]},
    "initial": {"mean": [0.0], "cov": [[1.0]]},
    "steps": {"h": [0.1, 0.05], "horizon": 2.0},
    "seeds": [3],
    "mode": {"task": "filter", "update": "lmmr", "predict": "jko"},
}

COMPARE_CONFIG = {
    "system": {"A": [[-1.0]], "B": [[1.0]]},
    "measurement": {"C": [[1.0]], "R": [[1.0]]},
    "initial": {"mean": [0.0], "cov": [[1.0]]},
    "steps": {"h": [0.05], "horizon": 3.0},
    "seeds": [11, 12, 13],
    "mode": {"task": "compare", "predict": "jko"},
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=2))
    return str(path)


def read_rows(path):
    lines = path.read_text().splitlines()
    comments = [l for l in lines if l.startswith("#")]
    header = lines[len(comments)]
    assert header == "h,seed,metric,value"
    rows = []
    for line in lines[len(comments) + 1:]:
        h, seed, metric, value = line.split(",")
        rows.append((h, seed, metric, float(value)))
    return comments, rows


class TestConvergePropagation:
    def test_writes_table_with_ratios(self, tmp_path):
        cfg = write_config(tmp_path, PROPAGATION_CONFIG)
        out = tmp_path / "prop.csv"
        assert main(["converge-propagation", "--config", cfg, "--out", str(out)]) == 0
        comments, rows = read_rows(out)
        assert any(c.startswith("# config_hash=") for c in comments)
        assert any(c.startswith("# tool_version=") for c in comments)
        ratios = [v for (_, _, m, v) in rows if m == "terminal_cov_error_ratio"]
        assert len(ratios) == 3
        assert all(1.7 < r < 2.3 for r in ratios)

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, PROPAGATION_CONFIG)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["converge-propagation", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["converge-propagation", "--config", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_threads_do_not_change_output(self, tmp_path):
        cfg = write_config(tmp_path, PROPAGATION_CONFIG)
        out1, out2 = tmp_path / "t1.csv", tmp_path / "t4.csv"
        main(["converge-propagation", "--config", cfg, "--out", str(out1), "--threads", "1"])
        main(["converge-propagation", "--config", cfg, "--out", str(out2), "--threads", "4"])
        assert out1.read_bytes() == out2.read_bytes()

    def test_single_h_has_no_ratios(self, tmp_path):
        payload = json.loads(json.dumps(PROPAGATION_CONFIG))
        payload["steps"]["h"] = [0.02]
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "single.csv"
        assert main(["converge-propagation", "--config", cfg, "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert not any("ratio" in m for (_, _, m, _) in rows)

    def test_non_hurwitz_rejected(self, tmp_path, capsys):
        payload = json.loads(json.dumps(PROPAGATION_CONFIG))
        payload["system"]["A"] = [[1.0]]
        cfg = write_config(tmp_path, payload)
        rc = main(["converge-propagation", "--config", cfg, "--out", str(tmp_path / "x.csv")])
        assert rc == 1
        assert "Hurwitz" in capsys.readouterr().err

    def test_json_mirror(self, tmp_path):
        cfg = write_config(tmp_path, PROPAGATION_CONFIG)
        out = tmp_path / "prop.csv"
        mirror = tmp_path / "prop.json"
        main(["converge-propagation", "--config", cfg, "--out", str(out), "--out-json", str(mirror)])
        payload = json.loads(mirror.read_text())
        assert payload["config_hash"]
        assert payload["rows"]

    def test_missing_output_path(self, tmp_path):
        cfg = write_config(tmp_path, PROPAGATION_CONFIG)
        assert main(["converge-propagation", "--config", cfg]) == 1

    def test_numeric_failure_exit_code(self, tmp_path, capsys):
        # oversized step destroys positive-definiteness mid-run: exit 2
        payload = {
            "system": {"A": [[-1.0]], "B": [[0.01]]},
            "initial": {"mean": [0.0], "cov": [[2.0]]},
            "steps": {"h": [0.9], "horizon": 0.9},
            "seeds": [],
            "mode": {"task": "propagation", "propagation": "general-first-order"},
        }
        cfg = write_config(tmp_path, payload)
        rc = main(["converge-propagation", "--config", cfg, "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "smaller step" in capsys.readouterr().err


class TestConvergeFilter:
    def test_error_rows_and_ratio(self, tmp_path):
        cfg = write_config(tmp_path, FILTER_CONFIG)
        out = tmp_path / "filt.csv"
        assert main(["converge-filter", "--config", cfg, "--out", str(out)]) == 0
        _, rows = read_rows(out)
        metrics = {m for (_, _, m, _) in rows}
        assert "terminal_cov_error" in metrics
        assert "mean_path_rmse_vs_reference" in metrics
        assert "terminal_cov_error_ratio" in metrics

    def test_wasserstein_mode_same_table_shape(self, tmp_path):
        payload = json.loads(json.dumps(FILTER_CONFIG))
        payload["mode"]["update"] = "wasserstein"
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "filtw.csv"
        assert main(["converge-filter", "--config", cfg, "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert {m for (_, _, m, _) in rows} == {
            "terminal_cov_error",
            "mean_path_rmse_vs_reference",
            "terminal_cov_error_ratio",
        }

    def test_scalar_benchmark_order_one(self, tmp_path):
        # long-horizon scalar benchmark: terminal covariance error vs the
        # reference run halves as h halves, for both update kinds
        for update in ("lmmr", "wasserstein"):
            payload = json.loads(json.dumps(FILTER_CONFIG))
            payload["steps"] = {"h": [0.2, 0.1, 0.05], "horizon": 20.0}
            payload["initial"] = {"mean": [0.0], "cov": [[2.0]]}
            payload["mode"]["update"] = update
            cfg = write_config(tmp_path, payload, name=f"bench_{update}.json")
            out = tmp_path / f"bench_{update}.csv"
            assert main(["converge-filter", "--config", cfg, "--out", str(out)]) == 0
            _, rows = read_rows(out)
            ratios = [v for (_, _, m, v) in rows if m == "terminal_cov_error_ratio"]
            assert len(ratios) == 2
            assert all(1.6 < r < 2.4 for r in ratios)

    @pytest.mark.parametrize("update", ["lmmr", "wasserstein"])
    def test_seed_batch_equals_one_seed_runs(self, tmp_path, update):
        seeds = [3, 0, 2**64 - 1]
        payload = json.loads(json.dumps(FILTER_CONFIG))
        payload["seeds"] = seeds
        payload["mode"]["update"] = update
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "batch.csv"
        assert main(["converge-filter", "--config", cfg, "--out", str(out)]) == 0
        _, batch_rows = read_rows(out)
        single_rows = []
        for seed in seeds:
            single = tmp_path / f"seed{seed}.csv"
            argv = ["converge-filter", "--config", cfg, "--out", str(single), "--seed", str(seed)]
            assert main(argv) == 0
            single_rows += read_rows(single)[1]
        assert batch_rows == sorted(single_rows, key=lambda r: (float(r[0]), int(r[1]), r[2]))

    def test_zero_seeds_rejected(self, tmp_path):
        payload = json.loads(json.dumps(FILTER_CONFIG))
        payload["seeds"] = []
        cfg = write_config(tmp_path, payload)
        assert main(["converge-filter", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 1

    def test_non_multiple_steps_rejected(self, tmp_path):
        payload = json.loads(json.dumps(FILTER_CONFIG))
        payload["steps"]["h"] = [0.1, 0.03]
        cfg = write_config(tmp_path, payload)
        assert main(["converge-filter", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 1


class TestCompareFilters:
    def test_reports_rmse_and_covariance(self, tmp_path):
        cfg = write_config(tmp_path, COMPARE_CONFIG)
        out = tmp_path / "cmp.csv"
        assert main(["compare-filters", "--config", cfg, "--out", str(out)]) == 0
        _, rows = read_rows(out)
        metrics = {m for (_, _, m, _) in rows}
        assert {"rmse_lmmr", "rmse_wasserstein",
                "terminal_cov_trace_lmmr", "terminal_cov_trace_wasserstein"} <= metrics
        per_seed = [r for r in rows if r[2] == "terminal_sq_error_lmmr"]
        assert len(per_seed) == 3
        # self-assessed steady covariances sit near their continuum values;
        # realized RMSE, not these, is the truth-based metric
        values = {m: v for (_, _, m, v) in rows}
        assert abs(values["terminal_cov_trace_lmmr"] - (math.sqrt(3.0) - 1.0)) < 0.02
        assert abs(values["terminal_cov_trace_wasserstein"] - 0.5) < 0.02

    def test_single_seed_single_rmse_row(self, tmp_path):
        payload = json.loads(json.dumps(COMPARE_CONFIG))
        payload["seeds"] = [5]
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "cmp1.csv"
        assert main(["compare-filters", "--config", cfg, "--out", str(out)]) == 0
        _, rows = read_rows(out)
        assert len([r for r in rows if r[2] == "rmse_lmmr"]) == 1

    def test_seed_override_flag(self, tmp_path):
        cfg = write_config(tmp_path, COMPARE_CONFIG)
        out = tmp_path / "cmp_seed.csv"
        mirror = tmp_path / "cmp_seed.json"
        assert main(["compare-filters", "--config", cfg, "--out", str(out), "--seed", "99",
                     "--out-json", str(mirror)]) == 0
        comments, rows = read_rows(out)
        seeds = {s for (_, s, m, _) in rows if m == "terminal_sq_error_lmmr"}
        assert seeds == {"99"}
        assert "# overrides=seed:99" in comments
        assert json.loads(mirror.read_text())["overrides"] == "seed:99"
        plain = tmp_path / "cmp_plain.csv"
        assert main(["compare-filters", "--config", cfg, "--out", str(plain)]) == 0
        plain_comments, _ = read_rows(plain)
        assert not any(c.startswith("# overrides=") for c in plain_comments)
        assert [c for c in comments if not c.startswith("# overrides=")] == plain_comments

    def test_non_finite_result_exits_2(self, tmp_path, capsys):
        payload = json.loads((REPO / "scripts" / "configs" / "compare_scalar.json").read_text())
        payload["initial"]["mean"] = [1e300]  # squared terminal errors overflow
        cfg = write_config(tmp_path, payload)
        out, mirror = tmp_path / "x.csv", tmp_path / "x.json"
        argv = ["compare-filters", "--config", cfg, "--out", str(out), "--out-json", str(mirror)]
        assert main(argv) == 2
        assert re.search(r"^numeric failure: terminal_sq_error_lmmr is inf at h=0\.02, seed=\d+$",
                         capsys.readouterr().err, re.MULTILINE)
        assert not out.exists() and not mirror.exists()

    def test_simulation_overflow_exits_2(self, tmp_path, capsys):
        # every field is valid, but h C x overflows in the simulated increments
        payload = json.loads((REPO / "scripts" / "configs" / "compare_scalar.json").read_text())
        payload["measurement"]["C"] = [[1e150]]
        payload["initial"]["mean"] = [1e200]
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "x.csv"
        assert main(["compare-filters", "--config", cfg, "--out", str(out)]) == 2
        assert re.search(r"^numeric failure: simulation overflowed", capsys.readouterr().err,
                         re.MULTILINE)
        assert not out.exists()

    def test_overflowing_initial_cov_exits_1_without_warning(self, tmp_path, capsys):
        payload = json.loads(json.dumps(COMPARE_CONFIG))
        payload["system"] = {"A": [[-1.0, 0.0], [0.0, -2.0]], "B": [[1.0, 0.0], [0.0, 1.0]]}
        payload["measurement"]["C"] = [[1.0, 0.0]]
        payload["initial"] = {"mean": [0.0, 0.0], "cov": [[1e308, -1e308], [1e308, 1e308]]}
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "x.csv"
        with warnings.catch_warnings(record=True) as leaked:
            warnings.simplefilter("always")
            assert main(["compare-filters", "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "not symmetric" in err and "RuntimeWarning" not in err
        assert [str(w.message) for w in leaked] == []
        assert not out.exists()

    @pytest.mark.parametrize("a,cov,predict,failed", [
        ([[-1.0, 0.3], [-0.2, -0.8]], 1e306, "jko", "lmmr update"),
        ([[-3.0, 0.5], [-0.5, -3.0]], 8e307, "jko", "jko predict"),
        ([[-3.0, 0.5], [-0.5, -3.0]], 8e307, "exact", "lmmr update"),
    ], ids=["update", "jko-predict", "exact-predict"])
    def test_overflowing_step_exits_2_without_warning(self, tmp_path, capsys, a, cov, predict,
                                                      failed):
        # every field is valid, but the filter's first step overflows
        payload = {
            "system": {"A": a, "B": [[1.0, 0.0], [0.0, 1.0]]},
            "measurement": {"C": [[1.0, 0.5]], "R": [[1.0]]},
            "initial": {"mean": [0.0, 0.0], "cov": [[cov, 0.0], [0.0, cov]]},
            "steps": {"h": [0.02], "horizon": 0.2},
            "seeds": [1, 2],
            "mode": {"task": "compare", "predict": predict},
        }
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "x.csv"
        with warnings.catch_warnings(record=True) as leaked:
            warnings.simplefilter("always")
            assert main(["compare-filters", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert re.search(rf"^numeric failure: {failed} failed at step 1: overflow", err,
                         re.MULTILINE)
        assert "RuntimeWarning" not in err
        assert [str(w.message) for w in leaked] == []
        assert not out.exists()

    def test_posterior_below_the_floor_exits_2_naming_the_update(self, tmp_path, capsys):
        # R = 1e-9 squeezes the transport posterior's observed variance to
        # 2.5e-15 at the first update, below the SPD floor
        payload = {
            "system": {"A": [[-1.0, 0.5], [0.0, -2.0]], "B": [[1.0, 0.0], [0.0, 1.0]]},
            "measurement": {"C": [[1.0, 0.0]], "R": [[1e-9]]},
            "initial": {"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]},
            "steps": {"h": [0.02], "horizon": 1.0},
            "seeds": [1, 2],
            "mode": {"task": "compare"},
        }
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "x.csv"
        assert main(["compare-filters", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "numeric failure: wasserstein update failed at step 1: matrix is not positive "
            "definite within the floor: eigenvalues in [2.500e-15, 9.600e-01]\n"
        )
        assert not out.exists()

    def test_update_whose_solve_fails_exits_2_naming_the_step(self, tmp_path, capsys):
        # with C scaled by 1e150, I + h P C^T R^-1 C is singular in floating
        # point while the update's right-hand side stays finite
        payload = {
            "system": {"A": [[-1.0, 100.0], [0.0, -1.0]], "B": [[1.0, 0.0], [0.0, 1.0]]},
            "measurement": {"C": [[1e150, 5e149]], "R": [[1.0]]},
            "initial": {"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]},
            "steps": {"h": [0.02], "horizon": 0.2},
            "seeds": [1, 2],
            "mode": {"task": "compare", "predict": "exact"},
        }
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "x.csv"
        assert main(["compare-filters", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "numeric failure: lmmr update failed at step 1: the mean solve failed: "
            "Singular matrix\n"
        )
        assert not out.exists()

    def test_euler_maruyama_step_that_does_not_decay_exits_2(self, tmp_path, capsys):
        # A = -150 is stable, but I + h A = -2 doubles the simulated truth at
        # every step; the run stops before simulating instead of scoring it
        payload = json.loads(json.dumps(COMPARE_CONFIG))
        payload["system"]["A"] = [[-150.0]]
        payload["steps"] = {"h": [0.02], "horizon": 2.0}
        payload["seeds"] = [1, 2]
        payload["mode"]["predict"] = "exact"
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "x.csv"
        with warnings.catch_warnings(record=True) as leaked:
            warnings.simplefilter("always")
            assert main(["compare-filters", "--config", cfg, "--out", str(out)]) == 2
        assert re.search(r"^numeric failure: Euler-Maruyama step h=0\.02 does not decay: "
                         r"the spectral radius of I \+ h A is 2 >= 1",
                         capsys.readouterr().err, re.MULTILINE)
        assert [str(w.message) for w in leaked] == []
        assert not out.exists()

    def test_stationary_covariance_below_floor_named(self, tmp_path, capsys):
        payload = json.loads((REPO / "scripts" / "configs" / "compare_scalar.json").read_text())
        payload["system"]["B"] = [[1e-7]]  # Hurwitz and controllable, P_inf = 1e-14
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "x.csv"
        assert main(["compare-filters", "--config", cfg, "--out", str(out)]) == 2
        assert re.search(r"^numeric failure: stationary covariance of \(A, B\): ",
                         capsys.readouterr().err, re.MULTILINE)
        assert not out.exists()

    def test_mismatched_measurement_dims_rejected(self, tmp_path):
        payload = json.loads(json.dumps(COMPARE_CONFIG))
        payload["measurement"]["C"] = [[1.0, 0.0]]
        payload["measurement"]["R"] = [[1.0]]
        cfg = write_config(tmp_path, payload)
        assert main(["compare-filters", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 1


class TestLemmaChecks:
    def test_deterministic_for_fixed_seed(self, tmp_path):
        out1, out2 = tmp_path / "l1.csv", tmp_path / "l2.csv"
        args = ["lemma-checks", "--trials", "25", "--dims", "1-3", "--seed", "9"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_single_trial_report(self, tmp_path):
        out = tmp_path / "l.csv"
        assert main(["lemma-checks", "--trials", "1", "--dims", "2", "--seed", "0",
                     "--out", str(out)]) == 0
        _, rows = read_rows(out)
        trials = {m: v for (_, _, m, v) in rows if m.endswith("_trials")}
        assert set(trials.values()) == {1.0}

    def test_all_suites_pass(self, tmp_path):
        table = lemma_checks(100, (1, 2, 3, 4, 5), seed=123)
        failures = {r.metric: r.value for r in table.rows if r.metric.endswith("_failures")}
        assert set(failures) == {
            "trace_inequality_failures",
            "transport_map_failures",
            "w2_gradient_failures",
            "trace_projection_failures",
        }
        assert all(v == 0.0 for v in failures.values())
        worst = {r.metric: r.value for r in table.rows if r.metric.endswith("_worst")}
        assert worst["trace_inequality_worst"] >= -1e-12

    @pytest.mark.parametrize("trials,dims", [(1, (1,)), (3, (1,)), (60, (1, 2, 3))])
    def test_trace_inequality_reports_the_least_slack_bit_for_bit(self, trials, dims):
        # a slack of n = 1 is often exactly +0.0; reporting it as -0.0 would
        # change the lemma-checks CSV bytes
        zeros = 0
        for seed in range(8):
            rng = np.random.default_rng(seed)
            worst, failures = math.inf, 0
            for i in range(trials):
                n = dims[i % len(dims)]
                x, y = random_spd(rng, n), random_spd(rng, n)
                sx = sqrt_spd(x).mat
                inner = sqrt_spd(SpdMatrix(sx @ y.mat @ sx)).trace()
                slack = math.sqrt(x.trace() * y.trace()) - inner
                worst = min(worst, slack)
                failures += slack < -1e-12
            got = check_trace_inequality(trials, dims, np.random.default_rng(seed))
            assert (got.name, got.trials, got.failures) == ("trace_inequality", trials, failures)
            assert repr(got.worst) == repr(worst)
            zeros += repr(worst) == "0.0"
        assert zeros or trials > 3  # the +0.0 case is exercised

    def test_stdout_when_no_out_path(self, capsys):
        assert main(["lemma-checks", "--trials", "2", "--dims", "1", "--seed", "1"]) == 0
        captured = capsys.readouterr().out
        assert "h,seed,metric,value" in captured

    def test_dims_past_desk_scale_rejected(self):
        with pytest.raises(ConfigError, match=r"^dims: .* at most 16"):
            lemma_checks(1, (2, 17), seed=0)

    def test_zero_trials_rejected(self):
        assert main(["lemma-checks", "--trials", "0", "--dims", "1", "--seed", "1"]) == 1


class TestExitCodes:
    @pytest.mark.parametrize(
        "argv",
        [
            ["lemma-checks", "--trials", "x"],
            ["lemma-checks", "--seed", "z"],
            ["no-such-command"],
        ],
        ids=["bad-int", "bad-seed", "unknown-subcommand"],
    )
    def test_usage_error_exits_1(self, argv, capsys):
        assert main(argv) == 1
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["lemma-checks", "--help"]])
    def test_help_and_version_exit_0(self, argv, capsys):
        assert main(argv) == 0
        assert capsys.readouterr().out

    @pytest.mark.parametrize("command,update,failed", [
        ("converge-filter", "lmmr",
         r"Kalman-Bucy reference run failed at interval \d+: SPD matrix has non-finite entries"),
        ("converge-filter", "wasserstein",
         r"Luenberger reference run failed at interval \d+: SPD matrix has non-finite entries"),
        ("converge-propagation", None, r"exact covariance: RK4 step 1 of 200: overflow"),
    ], ids=["kalman-bucy", "luenberger", "exact-cov"])
    def test_overflowing_oracle_exits_2_without_warning(self, tmp_path, capsys, command, update,
                                                        failed):
        # every field is valid, but the reference the run is measured against
        # overflows: each config starts at a covariance of 8e307
        if update:
            payload = {
                "system": {"A": [[-1.0]], "B": [[1.0]]},
                "measurement": {"C": [[1.0]], "R": [[1.0]]},
                "initial": {"mean": [0.0], "cov": [[8e307]]},
                "steps": {"h": [0.02, 0.01], "horizon": 0.2},
                "seeds": [1],
                "mode": {"task": "filter", "update": update, "predict": "exact"},
            }
        else:
            payload = {
                "system": {"A": [[-3.0, 0.5], [-0.5, -3.0]], "B": [[1.0, 0.0], [0.0, 1.0]]},
                "initial": {"mean": [0.0, 0.0], "cov": [[8e307, 0.0], [0.0, 8e307]]},
                "steps": {"h": [0.04, 0.02], "horizon": 0.2},
                "mode": {"task": "propagation", "propagation": "general-first-order"},
            }
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "x.csv"
        with warnings.catch_warnings(record=True) as leaked:
            warnings.simplefilter("always")
            assert main([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert re.search(rf"^numeric failure: {failed}", err, re.MULTILINE)
        assert "RuntimeWarning" not in err
        assert [str(w.message) for w in leaked] == []
        assert not out.exists()

    def test_information_term_divergence_exits_2_without_warning(self, tmp_path, capsys):
        # R = 1e-6 makes the Riccati term -P C^T R^-1 C P stiff, which the
        # step-count rule does not see in rho(A): the reference run overflows.
        payload = dict(FILTER_CONFIG, measurement={"C": [[1.0]], "R": [[1e-6]]},
                       steps={"h": [0.01], "horizon": 0.1})
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "x.csv"
        with warnings.catch_warnings(record=True) as leaked:
            warnings.simplefilter("always")
            assert main(["converge-filter", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: Kalman-Bucy reference run failed at interval 1: "
                              "SPD matrix has non-finite entries")
        assert [str(w.message) for w in leaked] == []
        assert not out.exists()

    @pytest.mark.parametrize("command,payload,message", [
        # F = A - C^T R^-1 C has rho 1e9: 16000001 substeps in each of 10 intervals
        ("converge-filter", {
            "system": {"A": [[-1.0, 0.5], [0.0, -2.0]], "B": [[1.0, 0.0], [0.0, 1.0]]},
            "measurement": {"C": [[1.0, 0.0]], "R": [[1e-9]]},
            "initial": {"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]},
            "steps": {"h": [0.02], "horizon": 0.2},
            "seeds": [1],
            "mode": {"task": "filter", "update": "wasserstein", "predict": "jko"},
        }, "Luenberger reference run needs 160000010 RK4 steps"),
        # rho(A) = 1e9 over the horizon 1: 8e8 steps of exact_cov
        ("converge-propagation", {
            "system": {"A": [[-1e9, 1000.0], [0.0, -1.0]], "B": [[1.0, 0.0], [0.0, 1.0]]},
            "initial": {"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]},
            "steps": {"h": [0.01], "horizon": 1.0},
            "mode": {"task": "propagation", "propagation": "general-first-order"},
        }, "exact covariance needs 800000000 RK4 steps"),
    ], ids=["luenberger", "exact-cov"])
    def test_stiff_reference_exits_2_before_its_first_step(self, tmp_path, capsys, command,
                                                           payload, message):
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "x.csv"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"numeric failure: {message}, more than 20000000 (rho(F) = 1e+09)\n"
        )
        assert not out.exists()

    def test_unwritable_output_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, PROPAGATION_CONFIG)
        out = tmp_path / "missing" / "prop.csv"
        assert main(["converge-propagation", "--config", cfg, "--out", str(out)]) == 1
        assert f"cannot write {out}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["compare-filters", "lemma-checks"])
    def test_unwritable_mirror_fails_before_the_run(self, tmp_path, capsys, command):
        # the CSV is written first, so an existing CSV would mean the run went ahead
        out, mirror = tmp_path / "x.csv", tmp_path / "missing_dir" / "x.json"
        if command == "lemma-checks":
            inputs = ["--trials", "1", "--dims", "1"]
        else:
            inputs = ["--config", write_config(tmp_path, COMPARE_CONFIG)]
        assert main([command, *inputs, "--out", str(out), "--out-json", str(mirror)]) == 1
        assert f"cannot write {mirror}" in capsys.readouterr().err
        assert not out.exists()

    def test_non_utf8_config_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.json"
        text = json.dumps({**PROPAGATION_CONFIG, "note": "caf\u00e9"}, ensure_ascii=False)
        cfg.write_bytes(text.encode("latin-1"))  # "é" is the lone byte 0xE9
        out = tmp_path / "x.csv"
        assert main(["converge-propagation", "--config", str(cfg), "--out", str(out)]) == 1
        assert f"error: cannot read config {cfg}: not UTF-8 text" in capsys.readouterr().err
        assert not out.exists()

    def test_config_past_the_size_limit_exits_1(self, tmp_path, capsys):
        # valid JSON, one character past the limit
        text = json.dumps(PROPAGATION_CONFIG)
        cfg = tmp_path / "padded.json"
        cfg.write_text(text + " " * (CONFIG_LIMIT + 1 - len(text)))
        out = tmp_path / "x.csv"
        assert main(["converge-propagation", "--config", str(cfg), "--out", str(out)]) == 1
        assert (f"error: cannot read config {cfg}: longer than 1048576 characters"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_config_at_the_size_limit_runs(self, tmp_path):
        # the limit counts characters: two-byte ones fill 2 MB here and still pass
        text = json.dumps({**PROPAGATION_CONFIG, "note": ""}, ensure_ascii=False)
        cfg = tmp_path / "full.json"
        cfg.write_text(text.replace('""', '"' + "\u00e9" * (CONFIG_LIMIT - len(text)) + '"'),
                       encoding="utf-8")
        assert len(cfg.read_text(encoding="utf-8")) == CONFIG_LIMIT
        out = tmp_path / "x.csv"
        assert main(["converge-propagation", "--config", str(cfg), "--out", str(out)]) == 0
        assert out.exists()

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero device")
    def test_endless_config_exits_1(self, tmp_path, capsys):
        # NUL characters are valid UTF-8, so only the size limit ends the read
        out = tmp_path / "x.csv"
        assert main(["converge-propagation", "--config", "/dev/zero", "--out", str(out)]) == 1
        assert ("error: cannot read config /dev/zero: longer than 1048576 characters"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("command,config,task,other", [
        ("converge-propagation", "filter_scalar", "propagation", "filter"),
        ("converge-filter", "compare_scalar", "filter", "compare"),
        ("compare-filters", "propagation_scalar", "compare", "propagation"),
    ], ids=["converge-propagation", "converge-filter", "compare-filters"])
    def test_config_of_another_task_exits_1(self, tmp_path, capsys, command, config, task,
                                            other):
        out, mirror = tmp_path / "x.csv", tmp_path / "x.json"
        cfg = str(REPO / "scripts" / "configs" / f"{config}.json")
        assert main([command, "--config", cfg, "--out", str(out), "--out-json", str(mirror)]) == 1
        assert (f"error: mode.task: expected '{task}', got '{other}'"
                in capsys.readouterr().err)
        assert not out.exists() and not mirror.exists()

    def test_lemma_checks_takes_no_threads_flag(self, tmp_path, capsys):
        out = tmp_path / "l.csv"
        assert main(["lemma-checks", "--trials", "1", "--threads", "1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "usage:" in err and "unrecognized arguments: --threads 1" in err
        assert not out.exists()

    @pytest.mark.parametrize("dims", ["17", "1-17", "10000000000", "1-100000000000"])
    def test_dims_past_desk_scale_exit_1(self, tmp_path, capsys, dims):
        # a range is refused from its bound, before any tuple of it is built
        out = tmp_path / "l.csv"
        assert main(["lemma-checks", "--trials", "1", "--dims", dims, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "usage:" in err and "--dims" in err and "at most 16" in err
        assert not out.exists()

    def test_trials_past_desk_scale_exit_1(self, tmp_path, capsys):
        out = tmp_path / "l.csv"
        argv = ["lemma-checks", "--trials", "1000000", "--dims", "1-16", "--out", str(out)]
        assert main(argv) == 1
        assert "error: trials: must be at most 10000, got 1000000" in capsys.readouterr().err
        assert not out.exists()

    def test_reversed_dims_range_exit_1(self, tmp_path, capsys):
        out = tmp_path / "l.csv"
        assert main(["lemma-checks", "--trials", "1", "--dims", "5-1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "usage:" in err and "--dims" in err and "range 5-1 is empty" in err
        assert not out.exists()

    @pytest.mark.parametrize("dims", ["1-", ",", "-3", "a"])
    def test_malformed_dims_exit_1_naming_the_two_forms(self, tmp_path, capsys, dims):
        out = tmp_path / "l.csv"
        assert main(["lemma-checks", "--trials", "1", "--dims", dims, "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"proxflow lemma-checks: error: argument --dims: expected 'lo-hi' or 'a,b,c', "
            f"got {dims!r}")
        assert not out.exists()

    def test_zero_dimension_exits_1(self, tmp_path, capsys):
        out = tmp_path / "l.csv"
        assert main(["lemma-checks", "--trials", "1", "--dims", "0", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: dims: every entry must be a positive integer, got (0,)\n")
        assert not out.exists()

    @pytest.mark.parametrize("command,payload,message", [
        # Hurwitz and controllable, but the Lyapunov solve returns NaN with no
        # floating-point trap: SpdMatrix refuses what the run computed
        ("converge-propagation", {
            "system": {"A": [[-1e-200, 1.0], [0.0, -1e-200]], "B": [[1.0, 0.0], [0.0, 1.0]]},
            "initial": {"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]},
            "steps": {"h": [0.1], "horizon": 1.0},
            "mode": {"task": "propagation", "propagation": "general-first-order"},
        }, "stationary covariance of (A, B): SPD matrix has non-finite entries"),
        # P_inf = 1e300, so its inverse square root falls below the SPD floor
        ("compare-filters", dict(COMPARE_CONFIG, system={"A": [[-1.0]], "B": [[1e150]]}),
         "stationary covariance of (A, B): matrix is not positive definite within the floor: "),
        # the closed form's Gamma = 1e308 overflows when symmetrized
        ("converge-propagation", {
            "system": {"A": [[-1e308]], "B": [[1.0]]},
            "initial": {"mean": [0.0], "cov": [[1.0]]},
            "steps": {"h": [0.1], "horizon": 1.0},
            "mode": {"task": "propagation", "propagation": "general-first-order"},
        }, "exact covariance: "),
    ], ids=["lyapunov-nan", "equipartition-roots", "closed-form-cov"])
    def test_one_time_read_that_fails_exits_2_naming_itself(self, tmp_path, capsys, command,
                                                             payload, message):
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "x.csv"
        with warnings.catch_warnings(record=True) as leaked:
            warnings.simplefilter("always")
            assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"numeric failure: {message}")
        assert [str(w.message) for w in leaked] == []
        assert not out.exists()

    def test_astronomical_step_count_is_shown_to_three_digits(self, tmp_path, capsys):
        # F = A - C^T R^-1 C = -1e302: 1.6e300 substeps in each of 10 intervals
        payload = dict(FILTER_CONFIG, measurement={"C": [[1e150]], "R": [[0.01]]},
                       steps={"h": [0.02], "horizon": 0.2},
                       mode={"task": "filter", "update": "wasserstein", "predict": "jko"})
        cfg = write_config(tmp_path, payload)
        assert main(["converge-filter", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == (
            "numeric failure: Luenberger reference run needs 1.6e+301 RK4 steps, "
            "more than 20000000 (rho(F) = 1e+302)\n")

    @pytest.mark.parametrize("clash", ["csv-json", "csv-config", "lemma-csv-json"])
    def test_outputs_and_config_must_be_different_files(self, tmp_path, capsys, clash):
        cfg = write_config(tmp_path, PROPAGATION_CONFIG)
        before = pathlib.Path(cfg).read_bytes()
        out = tmp_path / "x.csv"
        same = os.path.join(str(tmp_path), ".", "x.csv")  # another spelling of out
        if clash == "csv-json":
            argv = ["converge-propagation", "--config", cfg, "--out", str(out), "--out-json", same]
            named, first = same, out
        elif clash == "csv-config":
            argv = ["converge-propagation", "--config", cfg, "--out", cfg]
            named, first = cfg, cfg
        else:
            argv = ["lemma-checks", "--trials", "1", "--dims", "1", "--out", str(out),
                    "--out-json", same]
            named, first = same, out
        assert main(argv) == 1
        assert f"error: cannot write {named}: same file as {first}" in capsys.readouterr().err
        assert not out.exists()
        assert pathlib.Path(cfg).read_bytes() == before

    def test_lemma_mirror_without_out(self, tmp_path, capsys):
        mirror = tmp_path / "x.json"
        argv = ["lemma-checks", "--trials", "1", "--dims", "1", "--out-json", str(mirror)]
        assert main(argv) == 0
        printed = capsys.readouterr().out
        assert printed.startswith("# config_hash=") and "h,seed,metric,value" in printed
        doc = json.loads(mirror.read_text())
        assert len(doc["rows"]) == len(printed.splitlines()) - 3  # two comments, one header

    def test_lemma_mirror_missing_dir_exits_1_before_the_run(self, tmp_path, capsys):
        mirror = tmp_path / "missing_dir" / "x.json"
        argv = ["lemma-checks", "--trials", "1", "--dims", "1", "--out-json", str(mirror)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert f"cannot write {mirror}" in captured.err
        assert captured.out == ""  # no rows printed: the run never started


class TestConfigParsing:
    def test_missing_field_named(self):
        with pytest.raises(ConfigError, match="system"):
            parse_config(json.dumps({"initial": {}, "steps": {}}))

    def test_bad_json_reports_line(self):
        with pytest.raises(ConfigError, match="line"):
            parse_config("{\n  broken\n}")

    def test_field_path_in_matrix_error(self):
        payload = json.loads(json.dumps(PROPAGATION_CONFIG))
        payload["initial"]["cov"] = [1.0]
        with pytest.raises(ConfigError, match="initial.cov"):
            parse_config(json.dumps(payload))

    def test_horizon_must_divide(self):
        payload = json.loads(json.dumps(PROPAGATION_CONFIG))
        payload["steps"]["h"] = [0.3]
        with pytest.raises(ConfigError, match="horizon"):
            parse_config(json.dumps(payload))

    @pytest.mark.parametrize(
        "seeds,bad",
        [(["a"], 0), ([True], 0), ([1, 2.5], 1), ([4, None], 1), ([-5], 0), ([1, 5 + 2**64], 1),
         ([2**64], 0), ([1e300], 0)],
        ids=["string", "bool", "fraction", "null", "negative", "beyond-64-bits", "2**64", "1e300"],
    )
    def test_seeds_must_be_integers(self, seeds, bad):
        payload = json.loads(json.dumps(FILTER_CONFIG))
        payload["seeds"] = seeds
        with pytest.raises(ConfigError, match=rf"seeds\[{bad}\]"):
            parse_config(json.dumps(payload))

    def test_seeds_cli_exit_code(self, tmp_path, capsys):
        for seeds in (["a"], [-5], [5 + 2**64]):
            payload = json.loads(json.dumps(FILTER_CONFIG))
            payload["seeds"] = seeds
            cfg = write_config(tmp_path, payload)
            assert main(["converge-filter", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 1
            assert "seeds[0]" in capsys.readouterr().err
        # the generator keeps 64 bits, so 5 + 2**64 and -5 would alias 5 and 2**64 - 5
        cfg = write_config(tmp_path, FILTER_CONFIG)
        for seed in ("-5", str(5 + 2**64), "z"):
            for command in ("converge-filter", "lemma-checks"):
                argv = [command, "--seed", seed, "--out", str(tmp_path / "x.csv")]
                if command == "converge-filter":
                    argv += ["--config", cfg]
                assert main(argv) == 1
                err = capsys.readouterr().err
                assert "usage:" in err and "--seed" in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "path,value,field",
        [
            (("mode",), [1], "mode"),
            (("output",), None, "output"),
            (("steps",), 3, "steps"),
            (("system",), "x", "system"),
            (("measurement",), "x", "measurement"),
            (("initial",), [], "initial"),
            (("steps", "horizon"), "abc", "steps.horizon"),
            (("steps", "horizon"), None, "steps.horizon"),
            (("steps", "horizon"), math.inf, "steps.horizon"),
            (("steps", "horizon"), True, "steps.horizon"),
            (("steps", "h"), [math.nan], "steps.h"),
            (("steps", "beta"), "x", "steps.beta"),
            (("steps", "beta"), math.nan, "steps.beta"),
            (("steps", "beta"), math.inf, "steps.beta"),
            (("output",), {"csv": True}, "output.csv"),
            (("output",), {"csv": 7}, "output.csv"),
            (("system", "B"), [[]], "system"),
            (("steps", "horizon"), 1e300, "steps.h"),
            (("steps", "horizon"), 1e6, "steps.h"),
            (("steps", "h"), [1e-300], "steps.h"),
            (("system", "B"), [[1e300]], "system"),
            (("mode", "task"), "estimate", "mode.task"),
            (("mode", "propagation"), "exact", "mode.propagation"),
            (("mode", "update"), "kalman", "mode.update"),
            (("mode", "predict"), "euler", "mode.predict"),
            (("seeds",), [5, 5], "seeds"),
            (("measurement", "C"), [[1e200]], "measurement"),
        ],
        ids=[
            "mode-array", "output-null", "steps-number", "system-string",
            "measurement-string", "initial-array", "horizon-string", "horizon-null",
            "horizon-inf", "horizon-bool", "h-nan", "beta-string", "beta-nan", "beta-inf",
            "csv-bool", "csv-number", "B-no-columns", "horizon-1e300", "horizon-1e6",
            "h-1e-300", "B-overflow", "task-unknown", "propagation-unknown",
            "update-unknown", "predict-unknown", "seeds-repeated", "C-overflow",
        ],
    )
    def test_wrongly_typed_field_named(self, path, value, field):
        payload = json.loads(json.dumps(FILTER_CONFIG))
        node = payload
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        with pytest.raises(ConfigError, match=rf"^{re.escape(field)}: ") as err:
            parse_config(json.dumps(payload))
        assert path[-1] in str(err.value)
        if path[0] == "mode" and len(path) == 2:  # a choice names the bad value
            assert re.search(rf"must be one of \(.*\), got {re.escape(repr(value))}$",
                             str(err.value))

    def test_compare_takes_one_step_size(self):
        payload = json.loads(json.dumps(COMPARE_CONFIG))
        payload["steps"]["h"] = [0.02, 0.01]
        with pytest.raises(ConfigError, match=r"^steps\.h: a compare task takes one step size"):
            parse_config(json.dumps(payload))

    @pytest.mark.parametrize("edit,message", [
        ({"steps": {"h": [], "horizon": 2.0}}, "steps.h: need at least one positive step size"),
        ({"steps": {"h": [0.1, 0.1], "horizon": 2.0}}, "steps.h: step sizes must be distinct"),
        ({"steps": {"h": [0.1, 0.04], "horizon": 2.0}},
         "steps.h: 0.1 is not an integer multiple of the finest step 0.04"),
        ({"initial": {"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}},
         "initial.mean: dim 2 does not match system 1"),
        ({"seeds": [1e300]}, "seeds[0]: seed must be an integer in [0, 2**64), got 1e+300"),
    ], ids=["h-empty", "h-repeated", "h-not-a-multiple", "mean-width", "seed-1e300"])
    def test_refusal_names_its_field(self, edit, message):
        with pytest.raises(ConfigError) as err:
            parse_config(json.dumps(dict(FILTER_CONFIG, **edit)))
        assert str(err.value) == message

    @pytest.mark.parametrize("text,message", [
        ("[1]", "config root must be an object"),
        # 10**400 overflows float(): the OverflowError branch of a number field
        (json.dumps(FILTER_CONFIG).replace('"horizon": 2.0', '"horizon": 1' + "0" * 400),
         "steps.horizon: must be a finite positive number, got inf"),
        ('{"system": ' + "[" * 100_000 + "]" * 100_000 + "}",
         "config is not valid JSON: maximum recursion depth exceeded"),
    ], ids=["root-array", "horizon-400-digits", "nesting-too-deep"])
    def test_refusal_of_the_document_names_it(self, text, message):
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert str(err.value).startswith(message)

    def test_step_cap_is_inclusive(self):
        payload = json.loads(json.dumps(FILTER_CONFIG))
        payload["steps"] = {"h": [0.05], "horizon": 50000.0}
        assert parse_config(json.dumps(payload)).steps_for(0.05) == 10**6
        payload["steps"]["horizon"] = 50000.05
        with pytest.raises(ConfigError, match=r"^steps\.h: .* exceeds 1000000 steps"):
            parse_config(json.dumps(payload))

    def test_hash_changes_with_edits(self):
        a = parse_config(json.dumps(PROPAGATION_CONFIG))
        edited = json.loads(json.dumps(PROPAGATION_CONFIG))
        edited["steps"]["horizon"] = 2.0
        b = parse_config(json.dumps(edited))
        assert a.config_hash != b.config_hash


SEED_RULE = "seed must be an integer in [0, 2**64), got "


def _seed_site(site, seed):
    """Hand seed to one of the three places a seed enters: the stream, the
    config's seed list, or --seed (as its Python literal)."""
    if site == "stream":
        return GaussianStream(seed)._state
    if site == "config":
        payload = json.loads(json.dumps(FILTER_CONFIG))
        payload["seeds"] = [seed]
        return parse_config(json.dumps(payload)).seeds[0]
    return build_parser().parse_args(["lemma-checks", "--seed", repr(seed)]).seed


@pytest.mark.parametrize("site", ["stream", "config", "flag"])
@pytest.mark.parametrize("seed", [-1, 2**64, True, 1.5, "3"], ids=repr)
def test_every_seed_site_refuses_with_the_one_rule(site, seed, capsys):
    if site == "flag":  # the text is its value if a decimal integer, else the text itself
        with pytest.raises(SystemExit):
            _seed_site(site, seed)
        shown = seed if type(seed) is int else repr(seed)
        assert capsys.readouterr().err.endswith(f"error: argument --seed: {SEED_RULE}{shown!r}\n")
        return
    with pytest.raises(ValidationError) as info:
        _seed_site(site, seed)
    prefix = "seeds[0]: " if site == "config" else ""
    assert str(info.value) == f"{prefix}{SEED_RULE}{seed!r}"


@pytest.mark.parametrize("site", ["stream", "config", "flag"])
@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_every_seed_site_accepts_the_range_ends(site, seed):
    assert _seed_site(site, seed) == seed


@pytest.mark.parametrize(
    "command,config,name",
    [
        pytest.param("converge-propagation", "propagation_scalar", "propagation_scalar",
                     id="propagation_scalar"),
        pytest.param("converge-propagation", "propagation_general_2d", "propagation_general_2d",
                     id="propagation_general_2d"),
        pytest.param("converge-filter", "filter_scalar", "filter_scalar_lmmr",
                     id="filter_scalar_lmmr"),  # about 8 s
        pytest.param("compare-filters", "compare_scalar", "compare_scalar", id="compare_scalar"),
        pytest.param("lemma-checks", None, "lemma_checks", id="lemma_checks"),  # about 4 s
    ],
)
def test_bundled_propagation_tables_reproduce(tmp_path, command, config, name):
    out = tmp_path / f"{name}.csv"
    if command == "lemma-checks":  # the arguments scripts/run_all_experiments.py passes
        inputs = ["--trials", "1000", "--dims", "1-5", "--seed", "0"]
    else:
        inputs = ["--config", str(REPO / "scripts" / "configs" / f"{config}.json")]
    mirror = tmp_path / f"{name}.json"
    argv = [command, *inputs, "--out", str(out), "--out-json", str(mirror)]
    assert main(argv) == 0
    got_comments, got_rows = read_rows(out)
    want_comments, want_rows = read_rows(REPO / "results" / f"{name}.csv")
    assert got_comments == want_comments
    assert [row[:3] for row in got_rows] == [row[:3] for row in want_rows]
    for got, want in zip(got_rows, want_rows):
        assert got[3] == pytest.approx(want[3], rel=1e-9, abs=0.0)
    tracked = REPO / "results" / f"{name}.json"
    if tracked.exists():
        got, want = json.loads(mirror.read_text()), json.loads(tracked.read_text())
        for key in ("config_hash", "tool_version"):
            assert got[key] == want[key]
        got_values, want_values = _json_values(got), _json_values(want)
        assert got_values.keys() == want_values.keys()
        for key, value in want_values.items():
            assert got_values[key] == pytest.approx(value, rel=1e-9, abs=0.0)


def _scipy_loaded_by(code, cwd=None):
    """The scipy modules a fresh interpreter holds after running code
    against the package under test (printed on the last line of output)."""
    probe = code + "\nimport sys; print(*sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = pathlib.Path(proxflow.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, cwd=cwd, check=True)
    return done.stdout.splitlines()[-1].split()


def test_cli_start_leaves_scipy_unloaded():
    # scipy.linalg costs about 0.25 s and scipy.optimize most of a second to
    # import; only a non-zero expm exponent and the brute-force oracle use
    # them, so neither loads with the package.
    assert _scipy_loaded_by("import proxflow, proxflow.cli") == []


@pytest.mark.parametrize("command,config,loads", [
    ("compare-filters", "compare_scalar", False),
    ("converge-filter", "filter_scalar", False),
    ("converge-propagation", "propagation_general_2d", True),  # a skewed drift: e^(S h) != I
])
def test_bundled_run_loads_scipy_linalg_only_for_a_non_zero_exponent(
        tmp_path, command, config, loads):
    argv = [command, "--config", str(REPO / "scripts" / "configs" / f"{config}.json"),
            "--out", str(tmp_path / "out.csv"), "--out-json", str(tmp_path / "out.json")]
    code = f"from proxflow.cli import main; assert main({argv!r}) == 0"
    assert ("scipy.linalg" in _scipy_loaded_by(code, cwd=tmp_path)) is loads


def _json_values(doc):
    """A JSON mirror's rows as {(h, seed, metric): value}."""
    return {(row["h"], row["seed"], row["metric"]): row["value"] for row in doc["rows"]}


_MUTATED = [
    ("converge-propagation", "propagation_scalar"),
    ("converge-propagation", "propagation_general_2d"),
    ("compare-filters", "compare_scalar"),
]
_REMOVE = object()
_BAD_VALUES = [
    _REMOVE, "x", "", True, False, None, math.nan, math.inf, -math.inf, 0, -1, -2.5,
    [], {}, [[]], [math.nan], ["x"], [True], 1e300, 1e-300,
]


def _field_paths(node, prefix=()):
    """Every key and list index below node, as a path from the root."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _field_paths(value, prefix + (key,))


def _mutations():
    """Every (config, field path, bad value) triple over the bundled configs, in a
    fixed order: configs as listed, fields depth first, values as in _BAD_VALUES."""
    for command, name in _MUTATED:
        doc = json.loads((REPO / "scripts" / "configs" / f"{name}.json").read_text())
        for path in _field_paths(doc):
            for value in _BAD_VALUES:
                yield command, doc, path, value


def test_mutated_bundled_configs_exit_cleanly(tmp_path):
    # One field of a bundled config replaced by a wrong type, a bool, null,
    # a non-finite or non-positive number, or an empty array or object (or
    # removed): the CLI must return an exit code, never raise. Every 11th
    # entry of the table runs; 11 is coprime to the 20 bad values, so every
    # value and every field path is hit, and each tree runs the same cases.
    table = list(_mutations())
    assert len(table) == 2380  # 119 field paths x 20 values
    for command, doc, path, value in table[::11]:
        doc = json.loads(json.dumps(doc))
        node = doc
        for key in path[:-1]:
            node = node[key]
        if value is _REMOVE:
            del node[path[-1]]
        else:
            node[path[-1]] = value
        cfg = tmp_path / "mutated.json"
        cfg.write_text(json.dumps(doc))
        argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out.csv"),
                "--out-json", str(tmp_path / "out.json")]
        assert main(argv) in (0, 1, 2), (command, path, value)
