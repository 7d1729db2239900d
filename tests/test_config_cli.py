import contextlib
import csv
import io
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from dfca.cli import main
from dfca.config import ConfigError, ExperimentConfig, load_config
from dfca.harness import (
    _FINALS, cmd_diff, cmd_run, cmd_sweep, run_one_seed, stabilization_round, write_trace,
)
from dfca.verify import CHECK_NAMES, CHECKS

ROOT = Path(__file__).resolve().parents[1]
QUICK = ROOT / "configs" / "quick.cfg"
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

    @pytest.mark.parametrize("restrict", [True, False], ids=["true", "false"])
    def test_every_key_round_trips(self, tmp_path, restrict):
        cfg = ExperimentConfig(
            algorithm="davg", n_clients=7, k=4, topology_p=0.45,
            init_mode="li", aggregation_mode="batch", mixing_kind="metropolis", gamma=0.05,
            tau=2, batch_size=8, T=9, participation_fraction=0.5, data_n_classes=3,
            data_dim=5, data_samples_per_client=50, data_test_fraction=0.3, model_hidden=6, n_seeds=2,
            output_dir="elsewhere", on_disconnected="abort",
            restrict_receive_to_participants=restrict,
        )
        pairs = cfg.to_dict()
        defaults = ExperimentConfig().to_dict()
        assert list(pairs) == list(defaults)
        assert [k for k in pairs if pairs[k] == defaults[k]] == (
            [] if restrict else ["restrict_receive_to_participants"]
        )
        path = tmp_path / "all.cfg"
        path.write_text("".join(
            f"{k} = {str(v).lower() if isinstance(v, bool) else v}\n" for k, v in pairs.items()
        ))
        assert load_config(path) == cfg

    @pytest.mark.parametrize("key", [
        "topology.p", "gamma", "participation_fraction", "data.test_fraction",
    ])
    @pytest.mark.parametrize("value", ["inf", "-inf"])
    def test_non_finite_float_named_in_error(self, tiny_config, key, value):
        with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
            load_config(tiny_config, overrides=[f"{key}={value}"])

    @pytest.mark.parametrize("key, value", [
        ("restrict_receive_to_participants", "false"), ("restrict_receive_to_participants", 0),
        ("n_clients", 6.5), ("n_clients", True), ("k", 2.0), ("T", 2.5), ("model.hidden", 4.0),
        ("n_seeds", 1.5), ("gamma", "0.1"), ("gamma", False), ("algorithm", None),
    ])
    def test_a_value_of_another_type_named_when_built(self, key, value):
        field = key.replace(".", "_")
        with pytest.raises(ConfigError, match=f"config key '{key}': must be of type .* \\(got {value!r}\\)"):
            ExperimentConfig(**{field: value})
        with pytest.raises(ConfigError, match=f"'{key}'"):
            ExperimentConfig().replace(**{field: value})

    def test_values_of_the_field_type_accepted(self):
        cfg = ExperimentConfig(gamma=1, restrict_receive_to_participants=True)
        assert (cfg.gamma, cfg.restrict_receive_to_participants) == (1, True)

    def test_an_int_for_a_float_field_is_kept_as_a_float(self, tmp_path):
        """Equal configs write equal summaries: ``gamma=1`` is stored as 1.0,
        as ``gamma = 1`` in a config file loads."""
        path = tmp_path / "int.cfg"
        path.write_text("gamma = 1\ntopology.p = 1\n", encoding="utf-8")
        configs = [ExperimentConfig(gamma=1, topology_p=1),
                   ExperimentConfig().replace(gamma=1, topology_p=1), load_config(path)]
        assert [json.dumps(c.to_dict()) for c in configs] == [json.dumps(configs[2].to_dict())] * 3
        assert [(type(c.gamma), type(c.topology_p)) for c in configs] == [(float, float)] * 3

    def test_seed_is_an_unknown_key(self, tiny_config, tmp_path, output_root, capsys):
        """Runs take their seeds from 0..n_seeds-1 and draw the graph from
        that seed, and the data's class separation and noise are fixed, so no
        config key names any of them."""
        for key in ("seed", "topology.seed", "data.class_separation", "data.noise_std"):
            assert key not in ExperimentConfig().to_dict()
            path = tmp_path / "seeded.cfg"
            path.write_text(TINY + f"{key} = 3\n", encoding="utf-8")
            with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
                load_config(path)
            with pytest.raises(ConfigError, match=f"--set: unknown config key '{key}'"):
                load_config(tiny_config, [f"{key}=3"])
            assert cmd_run(str(tiny_config), [f"{key}=3"]) == 2
            assert f"unknown config key '{key}'" in capsys.readouterr().err
            assert cmd_sweep(str(tiny_config), key, ["1", "7"]) == 2
            assert f"unknown config key '{key}'" in capsys.readouterr().err
        assert not output_root.exists()

    def test_committed_configs_are_the_runs_they_name(self):
        """The acceptance goldens run ``ExperimentConfig()`` and the
        benchmark's desk workload runs ``configs/desk.cfg``."""
        assert load_config(ROOT / "configs" / "desk.cfg") == ExperimentConfig()
        assert load_config(QUICK).n_clients == 10

    def test_key_list_covers_documented_interface(self):
        """The backticked names in the first cell of each row of README's
        configuration table are the config's keys."""
        text = (ROOT / "README.md").read_text(encoding="utf-8")
        section = text.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
        rows = [line.split("|")[1] for line in section.splitlines() if line.startswith("| `")]
        documented = [name for cell in rows for name in re.findall(r"`([^`]+)`", cell)]
        assert sorted(documented) == sorted(ExperimentConfig().to_dict())


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

    def test_summary_key_sets(self, tiny_config, output_root):
        finals = {"final_test_accuracy", "final_clustering_accuracy", "final_f_global",
                  "stabilization_round"}
        assert cmd_run(str(tiny_config)) == 0
        summary = json.loads((output_root / "tiny" / "summary.json").read_text())
        assert set(summary) == {"config", "seeds", "per_seed", "mean", "std"}
        assert set(summary["per_seed"]) == finals | {"connected"}
        assert set(summary["mean"]) == set(summary["std"]) == finals
        assert list(summary["config"]) == sorted(ExperimentConfig().to_dict())
        assert len(summary["config"]) == 21
        assert cmd_run(str(tiny_config), ["gamma=1e8", "T=5"]) == 4
        failed = json.loads((output_root / "tiny" / "summary.json").read_text())
        assert set(failed) == set(summary) | {"failed"}
        assert [set(failed[part]) for part in ("per_seed", "mean", "std")] == [
            set(summary[part]) for part in ("per_seed", "mean", "std")]

    def test_seed_finals_are_read_from_the_trace(self, tiny_config):
        config = load_config(tiny_config)
        outcome = run_one_seed(config, 1)
        last = outcome.trace[-1]
        assert (outcome.final_test_accuracy, outcome.final_clustering_accuracy, outcome.final_f_global) == (
            last.test_accuracy, last.clustering_accuracy, last.f_global)
        assert outcome.stabilization_round == stabilization_round(outcome.trace)
        empty = run_one_seed(config.replace(T=0), 1)
        assert empty.trace == [] and empty.connected is not None
        assert [getattr(empty, name) for name in _FINALS] == [None] * len(_FINALS)

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
        assert "seed 1, round 3, client 2, cluster 0" in capsys.readouterr().err

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
            "where": {"seed": 1, "round": 3, "client": 2, "cluster": 0},
        }

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_loss_overflow_exits_4_naming_seed_round_and_cluster(self, tiny_config, capsys, output_root):
        assert cmd_run(str(tiny_config), overrides=["gamma=1e8", "T=5"]) == 4
        assert "loss went non-finite although local SGD left finite parameters at seed 1, round 4, " \
               "cluster 0" in capsys.readouterr().err

    def test_infinite_gamma_exits_2_naming_the_key(self, tiny_config, capsys, output_root):
        assert cmd_run(str(tiny_config), overrides=["gamma=inf", "T=3", "n_seeds=1"]) == 2
        assert "'gamma'" in capsys.readouterr().err
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

    def test_ifca_with_partial_participation_runs(self, tiny_config, output_root):
        """IFCA samples clients: the server averages what the sampled ones sent."""
        assert cmd_run(str(tiny_config), overrides=["algorithm=ifca", "participation_fraction=0.5",
                                                     "T=3", "n_seeds=1"]) == 0
        trace = (output_root / "tiny" / "seed_0" / "trace.csv").read_text().splitlines()
        assert len(trace) == 4

    def test_disconnected_abort_exits_nonzero(self, tiny_config, capsys):
        code = cmd_run(str(tiny_config), overrides=["topology.p=0.0", "on_disconnected=abort"])
        assert code == 3
        assert "disconnected" in capsys.readouterr().err

    def test_disconnected_later_seed_summarizes_the_finished_seeds(self, capsys, output_root):
        quick = Path(__file__).resolve().parents[1] / "configs" / "quick.cfg"
        code = cmd_run(str(quick), overrides=["on_disconnected=abort", "topology.p=0.3", "n_seeds=8",
                                              "T=2"])
        assert code == 3
        assert capsys.readouterr().err.rstrip().endswith("is disconnected at seed 2")
        run_dir = output_root / "quick"
        written = sorted(p.relative_to(run_dir).as_posix() for p in run_dir.rglob("*") if p.is_file())
        assert written == ["seed_0/trace.csv", "seed_1/trace.csv", "summary.json"]
        summary = json.loads((run_dir / "summary.json").read_text())
        assert summary["seeds"] == [0, 1]
        assert summary["per_seed"]["connected"] == [True, True]
        failed = summary["failed"]
        assert (failed["seed"], failed["where"]) == (2, {"seed": 2})
        assert failed["what"].endswith("is disconnected")

    def test_disconnected_proceed_warning_names_the_run_seed(self, caplog, output_root):
        quick = Path(__file__).resolve().parents[1] / "configs" / "quick.cfg"
        with caplog.at_level("WARNING", logger="dfca.harness"):
            assert cmd_run(str(quick), overrides=["topology.p=0.3", "n_seeds=4", "T=2"]) == 0
        assert [r.getMessage() for r in caplog.records if "disconnected" in r.getMessage()] == [
            "graph (n=10, p=0.3, topology seed 15045563145090991830) is disconnected at seed 2; "
            "proceeding per config"
        ]
        summary = json.loads((output_root / "quick" / "summary.json").read_text())
        assert summary["per_seed"]["connected"] == [True, True, False, True]

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

    @pytest.mark.parametrize("k", [1, 4])
    def test_write_trace_rejects_rows_of_another_cluster_count(self, tiny_config, tmp_path, k):
        trace = run_one_seed(load_config(tiny_config), 0).trace
        path = tmp_path / "trace.csv"
        with pytest.raises(ValueError, match=f"round 0 has 2 clusters, the trace {k}"):
            write_trace(path, trace, k)
        assert not path.exists()
        write_trace(path, trace, 2)
        assert len(path.read_text().splitlines()) == 3


class TestCmdSweep:
    def test_sweep_produces_combined_csv(self, tiny_config, output_root):
        assert cmd_sweep(str(tiny_config), "topology.p", ["0.5", "0.9"]) == 0
        combined = output_root / "tiny" / "sweep_topology_p.csv"
        lines = combined.read_text().splitlines()
        assert lines[0] == (
            "value,mean,std,final_clustering_accuracy_mean,final_clustering_accuracy_std,"
            "final_f_global_mean,final_f_global_std,stabilization_round_mean,stabilization_round_std,"
            "connected_seeds"
        )
        assert len(lines) == 3
        for p in ("0.5", "0.9"):
            assert (output_root / "tiny" / f"topology.p={p}" / "summary.json").exists()

    @pytest.mark.parametrize("algorithm", ["dfca", "ifca"])
    def test_sweep_csv_holds_every_final_of_each_summary(self, tiny_config, output_root, algorithm):
        """Each row: the value, then each final's mean and std from that
        value's summary.json, test accuracy first, then how many seeds had
        a connected graph (empty for ifca, which runs without one)."""
        overrides = ["n_seeds=3", f"algorithm={algorithm}"]
        assert cmd_sweep(str(tiny_config), "topology.p", ["0.2", "0.9"], overrides) == 0
        with open(output_root / "tiny" / "sweep_topology_p.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        for row, p in zip(rows, ("0.2", "0.9")):
            summary = json.loads((output_root / "tiny" / f"topology.p={p}" / "summary.json").read_text())
            assert row["value"] == p
            assert [row["mean"], row["std"]] == [repr(summary[s]["final_test_accuracy"]) for s in ("mean", "std")]
            for name in _FINALS[1:]:
                assert [row[f"{name}_mean"], row[f"{name}_std"]] == [
                    repr(summary[s][name]) for s in ("mean", "std")]
            connected = summary["per_seed"]["connected"]
            assert row["connected_seeds"] == ("" if algorithm == "ifca" else str(connected.count(True)))
        assert algorithm == "ifca" or {row["connected_seeds"] for row in rows} != {"3"}

    def test_single_value_sweep_matches_run(self, tiny_config, output_root):
        assert cmd_sweep(str(tiny_config), "gamma", ["0.1"]) == 0
        assert cmd_run(str(tiny_config)) == 0
        swept = json.loads(
            (output_root / "tiny" / "gamma=0.1" / "summary.json").read_text()
        )
        direct = json.loads((output_root / "tiny" / "summary.json").read_text())
        assert swept["per_seed"] == direct["per_seed"]

    def test_sweep_over_a_string_key(self, tiny_config, output_root):
        """Any config key sweeps: one run directory per algorithm and one CSV,
        whose ``connected_seeds`` is empty for ifca, which samples no graph."""
        values = ["dfca", "davg", "ifca"]
        assert cmd_sweep(str(tiny_config), "algorithm", values, ["T=2"]) == 0
        with open(output_root / "tiny" / "sweep_algorithm.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["value"] for row in rows] == values
        assert [row["connected_seeds"] == "" for row in rows] == [False, False, True]
        for v in values:
            assert (output_root / "tiny" / f"algorithm={v}" / "summary.json").exists()

    @pytest.mark.parametrize("key, values", [("k", ["2", "3"]), ("gamma", ["0.1", "-1"]),
                                             ("gamma", ["0.1", "0.10"]), ("topology.p", ["0.5", "0.9", "0.50"]),
                                             ("algorithm", ["dfca", "bogus"]),
                                             ("restrict_receive_to_participants", ["true", "1"])])
    def test_a_bad_value_runs_no_value(self, tiny_config, output_root, capsys, key, values):
        """An invalid value, or one that loads the same as an earlier one."""
        assert cmd_sweep(str(tiny_config), key, values, ["T=2", "n_seeds=1"]) == 2
        assert f"'{key}'" in capsys.readouterr().err
        assert not output_root.exists()

    def test_three_gamma_values_emit_three_rows(self, tiny_config, output_root):
        assert cmd_sweep(str(tiny_config), "gamma", ["0.05", "0.1", "0.25"]) == 0
        lines = (output_root / "tiny" / "sweep_gamma.csv").read_text().splitlines()
        assert len(lines) == 4


def quick_run(monkeypatch, root, *overrides):
    """Run ``configs/quick.cfg`` into ``root`` and return its run directory."""
    monkeypatch.setenv("DFCA_OUTPUT_ROOT", str(root))
    assert cmd_run(str(QUICK), overrides) == 0
    return root / "quick"


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


class TestCmdDiff:
    def test_runs_that_differ_in_gamma_name_the_first_round_and_column(self, output_root, monkeypatch, capsys):
        a = quick_run(monkeypatch, output_root / "a", "gamma=0.05")
        b = quick_run(monkeypatch, output_root / "b", "gamma=0.2")
        capsys.readouterr()
        assert main(["diff", str(a), str(b)]) == 1
        out = capsys.readouterr().out
        for seed in ("seed_0", "seed_1"):
            rows_a, rows_b = (read_rows(d / seed / "trace.csv") for d in (a, b))
            header = rows_a[0]
            where = next(
                (ra[0], column)
                for ra, rb in zip(rows_a[1:], rows_b[1:])
                for column, x, y in zip(header, ra, rb)
                if x != y
            )
            assert f"{seed}: first difference at round {where[0]}, column {where[1]}\n" in out

    def test_one_changed_cell_is_named_with_its_delta(self, output_root, monkeypatch, capsys):
        a = quick_run(monkeypatch, output_root / "a", "T=10")
        b = output_root / "b"
        shutil.copytree(a, b)
        rows = read_rows(b / "seed_1" / "trace.csv")
        column = rows[0].index("disp_1")
        rows[8][column] = repr(float(rows[8][column]) + 0.25)  # row 8 is round 7
        with open(b / "seed_1" / "trace.csv", "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
        capsys.readouterr()
        assert cmd_diff(str(a), str(b)) == 1
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "seed_0: identical"
        assert out[1] == "seed_1: first difference at round 7, column disp_1"
        assert "disp_0 0, disp_1 0.25, clustering_acc 0," in out[2]

    def test_a_run_against_itself_is_identical(self, output_root, monkeypatch, capsys):
        a = quick_run(monkeypatch, output_root / "a", "T=3")
        capsys.readouterr()
        assert main(["diff", str(a), str(a)]) == 0
        assert capsys.readouterr().out == "seed_0: identical\nseed_1: identical\n"

    @pytest.mark.parametrize("fault, message", [
        ("header", "trace headers differ"),
        ("missing seed", "has no trace of seed_1"),
        ("unreadable", "cannot read"),
        ("not a number", "line 3: could not convert"),
    ])
    def test_a_header_mismatch_missing_seed_or_unreadable_trace_exits_2(
        self, output_root, monkeypatch, capsys, fault, message
    ):
        a = quick_run(monkeypatch, output_root / "a", "T=3")
        b = output_root / "b"
        shutil.copytree(a, b)
        trace = b / "seed_1" / "trace.csv"
        if fault == "header":
            trace.write_text(trace.read_text().replace("disp_1", "disp_one", 1))
        elif fault == "missing seed":
            shutil.rmtree(trace.parent)
        elif fault == "unreadable":
            trace.write_bytes(b"\xff\xfe round")
        else:
            trace.write_text(trace.read_text().replace("\n1,", "\n1x,", 1))
        capsys.readouterr()
        assert main(["diff", str(a), str(b)]) == 2
        assert message in capsys.readouterr().err


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

    @pytest.mark.parametrize("name", CHECK_NAMES)
    def test_check(self, verify_run, name):
        report = [line for line in verify_run[2].splitlines() if line.split(":")[0].endswith(f" {name}")]
        assert len(report) == 1 and report[0].startswith(f"PASS {name}:"), report

    def test_sequential_equals_batch_enumerates_every_order(self, verify_run):
        """Criterion 1's instances and exhaustive enumeration cannot shrink unnoticed."""
        report = [line for line in verify_run[2].splitlines() if "sequential-equals-batch:" in line]
        assert len(report) == 1
        assert "1154 receiver/cluster pairs, 4753 arrival orders" in report[0], report


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
