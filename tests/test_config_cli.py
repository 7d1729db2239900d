import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from dfca.cli import main
from dfca.config import ConfigError, ExperimentConfig, config_keys, load_config
from dfca.harness import cmd_run, cmd_sweep
from dfca.verify import CHECK_NAMES, CHECKS

TINY = """
# desk-scale smoke configuration
n_clients = 6
k = 2
topology.p = 0.7
T = 2
data.samples_per_client = 30
model.hidden = 4
n_seeds = 2
"""


@pytest.fixture()
def tiny_config(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY, encoding="utf-8")
    return path


@pytest.fixture(autouse=True)
def output_root(tmp_path, monkeypatch):
    root = tmp_path / "out"
    monkeypatch.setenv("DFCA_OUTPUT_ROOT", str(root))
    return root


class TestConfigParsing:
    def test_loads_values_and_defaults(self, tiny_config):
        cfg = load_config(tiny_config)
        assert cfg.n_clients == 6
        assert cfg.topology_p == 0.7
        assert cfg.gamma == 0.1  # untouched default

    def test_unknown_key_named_in_error(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("no_such_knob = 5\n")
        with pytest.raises(ConfigError, match="no_such_knob"):
            load_config(path)

    def test_bad_value_named_in_error(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("gamma = fast\n")
        with pytest.raises(ConfigError, match="gamma"):
            load_config(path)

    def test_range_violation_named_in_error(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("participation_fraction = 0\n")
        with pytest.raises(ConfigError, match="participation_fraction"):
            load_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("gamma = 0.1\ngamma = 0.2\n")
        with pytest.raises(ConfigError, match="duplicate"):
            load_config(path)

    def test_overrides_apply_after_file(self, tiny_config):
        cfg = load_config(tiny_config, overrides=["gamma=0.25", "T=1"])
        assert cfg.gamma == 0.25
        assert cfg.T == 1

    def test_malformed_override_rejected(self, tiny_config):
        with pytest.raises(ConfigError, match="override"):
            load_config(tiny_config, overrides=["gamma0.25"])

    def test_ifca_rejects_partial_participation(self):
        with pytest.raises(ConfigError, match="participation_fraction"):
            ExperimentConfig(algorithm="ifca", participation_fraction=0.5).validate()
        ExperimentConfig(algorithm="dfca", participation_fraction=0.5).validate()

    @pytest.mark.parametrize("restrict", [True, False], ids=["true", "false"])
    def test_every_key_round_trips(self, tmp_path, restrict):
        cfg = ExperimentConfig(
            algorithm="davg", n_clients=7, k=4, topology_p=0.45, topology_seed=3,
            init_mode="li", aggregation_mode="batch", mixing_kind="metropolis", gamma=0.05,
            tau=2, batch_size=8, T=9, participation_fraction=0.5, data_n_classes=3,
            data_dim=5, data_samples_per_client=50, data_class_separation=2.5,
            data_noise_std=0.5, data_test_fraction=0.3, model_hidden=6, seed=4, n_seeds=2,
            output_dir="elsewhere", on_disconnected="abort",
            restrict_receive_to_participants=restrict,
        )
        pairs = cfg.to_dict()
        defaults = ExperimentConfig().to_dict()
        assert sorted(pairs) == config_keys()
        assert [k for k in pairs if pairs[k] == defaults[k]] == (
            [] if restrict else ["restrict_receive_to_participants"]
        )
        path = tmp_path / "all.cfg"
        path.write_text("".join(
            f"{k} = {str(v).lower() if isinstance(v, bool) else v}\n" for k, v in pairs.items()
        ))
        assert load_config(path) == cfg

    @pytest.mark.parametrize("key", [
        "topology.p", "gamma", "participation_fraction", "data.class_separation",
        "data.noise_std", "data.test_fraction",
    ])
    @pytest.mark.parametrize("value", ["inf", "-inf"])
    def test_non_finite_float_named_in_error(self, tiny_config, key, value):
        with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
            load_config(tiny_config, overrides=[f"{key}={value}"])

    def test_key_list_covers_documented_interface(self):
        keys = config_keys()
        for expected in ("n_clients", "k", "topology.p", "topology.seed", "init_mode",
                         "aggregation_mode", "mixing_kind", "gamma", "tau", "batch_size",
                         "T", "participation_fraction", "algorithm", "n_seeds", "output_dir",
                         "seed"):
            assert expected in keys


class TestCmdRun:
    def test_writes_traces_and_summary(self, tiny_config, output_root):
        assert cmd_run(str(tiny_config)) == 0
        run_dir = output_root / "tiny"
        traces = sorted(run_dir.glob("seed_*/trace.csv"))
        assert [p.parent.name for p in traces] == ["seed_0", "seed_1"]
        summary = json.loads((run_dir / "summary.json").read_text())
        per_seed = summary["per_seed"]["final_test_accuracy"]
        assert len(per_seed) == 2
        assert summary["mean"]["final_test_accuracy"] == pytest.approx(
            float(np.mean(per_seed)), abs=1e-12
        )

    def test_repeated_runs_byte_identical(self, tiny_config, output_root):
        assert cmd_run(str(tiny_config)) == 0
        first = (output_root / "tiny" / "seed_0" / "trace.csv").read_bytes()
        assert cmd_run(str(tiny_config)) == 0
        second = (output_root / "tiny" / "seed_0" / "trace.csv").read_bytes()
        assert first == second

    def test_unknown_override_key_exits_nonzero(self, tiny_config, capsys):
        assert cmd_run(str(tiny_config), overrides=["bogus=1"]) == 2
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_exits_4_naming_seed_round_and_client(self, capsys, output_root):
        quick = Path(__file__).resolve().parents[1] / "configs" / "quick.cfg"
        assert cmd_run(str(quick), overrides=["gamma=1e4", "T=5"]) == 4
        assert "seed 1, round 3, client 5, cluster 1" in capsys.readouterr().err

    def test_divergence_keeps_the_finished_seeds_whole(self, output_root):
        quick = Path(__file__).resolve().parents[1] / "configs" / "quick.cfg"
        assert cmd_run(str(quick), overrides=["gamma=1e4", "T=5"]) == 4  # at seed 1
        run_dir = output_root / "quick"
        written = sorted(p.relative_to(run_dir).as_posix() for p in run_dir.rglob("*") if p.is_file())
        assert written == ["seed_0/trace.csv", "summary.json"]  # no temporary file
        rows = (run_dir / "seed_0" / "trace.csv").read_text().splitlines()
        assert rows[0].startswith("round,") and [r.split(",")[0] for r in rows[1:]] == list("01234")

    def test_divergence_summarizes_the_finished_seeds_and_names_the_failed_one(self, output_root):
        quick = Path(__file__).resolve().parents[1] / "configs" / "quick.cfg"
        assert cmd_run(str(quick), overrides=["gamma=1e4", "T=5"]) == 4
        summary = json.loads((output_root / "quick" / "summary.json").read_text())
        assert summary["seeds"] == [0]
        assert summary["config"]["gamma"] == 1e4
        assert len(summary["per_seed"]["final_test_accuracy"]) == 1
        assert summary["mean"]["final_test_accuracy"] == summary["per_seed"]["final_test_accuracy"][0]
        assert summary["failed"] == {
            "seed": 1,
            "what": "local SGD left non-finite model parameters",
            "where": {"seed": 1, "round": 3, "client": 5, "cluster": 1},
        }

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_loss_overflow_exits_4_naming_seed_round_and_cluster(self, tiny_config, capsys, output_root):
        assert cmd_run(str(tiny_config), overrides=["gamma=1e8", "T=5"]) == 4
        assert "loss went non-finite although local SGD left finite parameters at seed 1, round 4, " \
               "cluster 0" in capsys.readouterr().err

    def test_infinite_noise_exits_2_naming_the_key(self, tiny_config, capsys, output_root):
        assert cmd_run(str(tiny_config), overrides=["data.noise_std=inf", "T=3", "n_seeds=1"]) == 2
        assert "data.noise_std" in capsys.readouterr().err
        assert not output_root.exists()

    def test_empty_split_side_rejected_before_running(self, tiny_config, capsys, output_root):
        code = cmd_run(str(tiny_config), overrides=["data.samples_per_client=40",
                                                    "data.test_fraction=0.01"])
        assert code == 2
        assert "data.test_fraction" in capsys.readouterr().err
        assert not output_root.exists()

    def test_ifca_with_local_init_rejected_before_running(self, tiny_config, capsys, output_root):
        code = cmd_run(str(tiny_config), overrides=["algorithm=ifca", "init_mode=li"])
        assert code == 2
        assert "init_mode" in capsys.readouterr().err
        assert not output_root.exists()

    def test_disconnected_abort_exits_nonzero(self, tiny_config, capsys):
        code = cmd_run(str(tiny_config), overrides=["topology.p=0.0", "on_disconnected=abort"])
        assert code == 3
        assert "disconnected" in capsys.readouterr().err

    def test_ifca_builds_no_graph(self, tiny_config, output_root):
        # an empty graph under on_disconnected=abort would exit 3 if ifca sampled one
        code = cmd_run(str(tiny_config), overrides=["algorithm=ifca", "topology.p=0",
                                                    "on_disconnected=abort"])
        assert code == 0
        summary = json.loads((output_root / "tiny" / "summary.json").read_text())
        assert summary["per_seed"]["connected"] == [None, None]

    def test_trace_header_layout(self, tiny_config, output_root):
        cmd_run(str(tiny_config))
        header = (output_root / "tiny" / "seed_0" / "trace.csv").read_text().splitlines()[0]
        assert header == ("round,f_global,f_cluster_0,f_cluster_1,disp_0,disp_1,"
                          "clustering_acc,test_acc,avg_drift_0,avg_drift_1,assignments_changed")


class TestCmdSweep:
    def test_sweep_produces_combined_csv(self, tiny_config, output_root):
        assert cmd_sweep(str(tiny_config), "topology.p", ["0.5", "0.9"]) == 0
        combined = output_root / "tiny" / "sweep_topology_p.csv"
        lines = combined.read_text().splitlines()
        assert lines[0] == "value,mean,std"
        assert len(lines) == 3
        for p in ("0.5", "0.9"):
            assert (output_root / "tiny" / f"topology.p={p}" / "summary.json").exists()

    def test_single_value_sweep_matches_run(self, tiny_config, output_root):
        assert cmd_sweep(str(tiny_config), "gamma", ["0.1"]) == 0
        assert cmd_run(str(tiny_config)) == 0
        swept = json.loads(
            (output_root / "tiny" / "gamma=0.1" / "summary.json").read_text()
        )
        direct = json.loads((output_root / "tiny" / "summary.json").read_text())
        assert swept["per_seed"] == direct["per_seed"]

    def test_non_numeric_key_rejected(self, tiny_config, capsys):
        assert cmd_sweep(str(tiny_config), "init_mode", ["gi"]) == 2
        assert "init_mode" in capsys.readouterr().err

    def test_seed_rejected_as_every_value_runs_the_same_seeds(self, tiny_config, output_root, capsys):
        assert cmd_sweep(str(tiny_config), "seed", ["1", "7"]) == 2
        err = capsys.readouterr().err
        assert "'seed'" in err and "0..n_seeds-1" in err and "topology.seed" in err
        assert not (output_root / "tiny").exists()

    def test_three_gamma_values_emit_three_rows(self, tiny_config, output_root):
        assert cmd_sweep(str(tiny_config), "gamma", ["0.05", "0.1", "0.25"]) == 0
        lines = (output_root / "tiny" / "sweep_gamma.csv").read_text().splitlines()
        assert len(lines) == 4


@pytest.fixture(scope="session")
def verify_run():
    """One ``dfca verify`` run shared by the tests that read its report:
    exit code, wall seconds and printed lines."""
    out = io.StringIO()
    start = time.time()
    with contextlib.redirect_stdout(out):
        code = main(["verify"])
    return code, time.time() - start, out.getvalue()


class TestVerifyCommand:
    def test_suite_passes_on_fresh_build(self, verify_run):
        code, seconds, out = verify_run
        assert code == 0
        assert seconds < 60.0
        assert "FAIL" not in out
        for name in CHECK_NAMES:
            assert f"PASS {name}:" in out
        assert out.count("PASS") == len(CHECKS)

    def test_injected_fault_detected(self, capsys):
        assert main(["verify", "--inject-fault"]) == 1
        out = capsys.readouterr().out
        assert "FAIL sequential-equals-batch" in out
        assert out.count("FAIL") == 1

    @pytest.mark.parametrize("name", CHECK_NAMES)
    def test_check(self, verify_run, name):
        report = [line for line in verify_run[2].splitlines() if line.split(":")[0].endswith(f" {name}")]
        assert len(report) == 1 and report[0].startswith(f"PASS {name}:"), report


class TestCliEntrypoint:
    def test_run_subcommand(self, tiny_config, output_root):
        assert main(["run", str(tiny_config), "--set", "T=1"]) == 0
        assert (output_root / "tiny" / "seed_0" / "trace.csv").exists()

    def test_sweep_subcommand(self, tiny_config, output_root):
        assert main(["sweep", str(tiny_config), "--key", "gamma", "--values", "0.1,0.2"]) == 0
        assert (output_root / "tiny" / "sweep_gamma.csv").exists()

    def test_module_invocation(self, tiny_config, tmp_path):
        env = dict(os.environ, DFCA_OUTPUT_ROOT=str(tmp_path / "mod_out"))
        proc = subprocess.run(
            [sys.executable, "-m", "dfca", "run", str(tiny_config)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "mod_out" / "tiny" / "summary.json").exists()
