"""Acceptance suite: one test per release criterion, each printing a
pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``.

The desk-scale golden numbers (clustering accuracies, stabilization rounds)
were established on the first full implementation and regress within +/-2
accuracy points.
"""

import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from dfca import verify
from dfca.config import ExperimentConfig
from dfca.harness import cmd_run, run_one_seed, stabilization_round

CHECKS = dict(verify.CHECKS)

# Golden desk-scale results (5-seed means at N=20, k=2, p=0.3, T=150,
# gamma=0.1, tau=5, default synthetic data): regress within +/-2 points.
GOLDEN_GI_CLUSTERING = 0.990
GOLDEN_LI_CLUSTERING = 0.970
GOLDEN_TOLERANCE = 0.02

N_SEEDS = 5


def report(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


def _trace(seed, config_kw):
    return run_one_seed(ExperimentConfig(**config_kw), seed).trace


def run_all(runs):
    """Traces of full experiments, one per (seed, config keyword dict) pair,
    each run in a worker process."""
    with ProcessPoolExecutor(max_workers=os.cpu_count()) as pool:
        return list(pool.map(_trace, *zip(*runs)))


def run_batch(**config_kw):
    """Five-seed batch of full experiments; returns per-seed traces."""
    return run_all([(seed, config_kw) for seed in range(N_SEEDS)])


@pytest.fixture(scope="session")
def desk_runs():
    """GI and LI desk-scale batches shared by criteria 5-7."""
    t0 = time.time()
    traces = run_all([(seed, dict(init_mode=mode)) for mode in ("gi", "li") for seed in range(N_SEEDS)])
    return {"gi": traces[:N_SEEDS], "li": traces[N_SEEDS:], "elapsed": time.time() - t0}


@pytest.fixture(scope="session")
def ifca_runs():
    return run_batch(algorithm="ifca")


@pytest.fixture(scope="session")
def davg_runs():
    return run_batch(algorithm="davg")


def run_check(criterion, name, bound_s=None):
    """Run one ``dfca verify`` check as an acceptance criterion."""
    t0 = time.time()
    ok, detail = CHECKS[name]()
    elapsed = time.time() - t0
    assert ok, detail
    if bound_s is not None:
        assert elapsed < bound_s
    report(criterion, f"{detail}; {elapsed:.1f}s")


class TestCriterion1SequentialEqualsBatch:
    def test_exhaustive_permutation_equivalence(self):
        run_check(1, "sequential-equals-batch", bound_s=10.0)


class TestCriterion2AssignmentDescent:
    def test_hundred_randomized_states(self):
        run_check(2, "assignment-is-descent", bound_s=10.0)


class TestCriterion3ConsensusContraction:
    def test_dispersion_contracts_and_average_preserved(self):
        run_check(3, "gossip-preserves-average-and-contracts", bound_s=10.0)


class TestCriterion4GlobalInitZeroDispersion:
    def test_initial_dispersion_exactly_zero(self):
        run_check(4, "global-init-zero-dispersion")


def final_clustering(traces):
    return [trace[-1].clustering_accuracy for trace in traces]


def final_test(traces):
    return [trace[-1].test_accuracy for trace in traces]


def first_round_at(traces, threshold):
    out = []
    for trace in traces:
        hit = next((m.round for m in trace if m.clustering_accuracy >= threshold), None)
        out.append(hit)
    return out


class TestCriterion5DeskScaleClusteringRecovery:
    def test_gi_recovers_clusters_and_li_follows(self, desk_runs):
        gi_clustering = final_clustering(desk_runs["gi"])
        gi_mean = float(np.mean(gi_clustering))
        assert gi_mean >= 0.95
        assert abs(gi_mean - GOLDEN_GI_CLUSTERING) <= GOLDEN_TOLERANCE

        li_clustering = final_clustering(desk_runs["li"])
        li_mean = float(np.mean(li_clustering))
        assert abs(li_mean - GOLDEN_LI_CLUSTERING) <= GOLDEN_TOLERANCE

        gi_stab = [stabilization_round(trace) for trace in desk_runs["gi"]]
        li_stab = [stabilization_round(trace) for trace in desk_runs["li"]]
        rounds = len(desk_runs["gi"][0])
        assert all(r < rounds for r in gi_stab + li_stab)  # assignments do stabilize
        li_first = first_round_at(desk_runs["li"], 0.95)
        assert all(r is not None for r in li_first)
        deadline = 2.0 * float(np.mean(gi_stab))
        assert float(np.mean(li_first)) <= deadline

        assert desk_runs["elapsed"] < 300.0
        report(5, f"GI clustering {gi_mean:.3f} (per-seed {gi_clustering}), "
                  f"LI {li_mean:.3f}; LI reaches 0.95 by round {np.mean(li_first):.1f} "
                  f"vs deadline {deadline:.1f} (GI stabilization {gi_stab}); "
                  f"{desk_runs['elapsed']:.0f}s")


class TestCriterion6MatchesCentralizedBaseline:
    def test_gi_within_two_points_of_ifca(self, desk_runs, ifca_runs):
        gi = float(np.mean(final_test(desk_runs["gi"])))
        ifca = float(np.mean(final_test(ifca_runs)))
        gap = abs(gi - ifca)
        assert gap <= 0.02
        report(6, f"decentralized GI {gi:.4f} vs centralized {ifca:.4f}: gap "
                  f"{100 * gap:.2f} points <= 2")


class TestCriterion7ClusteringBeatsSingleModel:
    def test_gi_beats_no_clustering_baseline(self, desk_runs, davg_runs):
        gi = float(np.mean(final_test(desk_runs["gi"])))
        davg = float(np.mean(final_test(davg_runs)))
        margin = gi - davg
        assert margin >= 0.03
        report(7, f"clustered {gi:.4f} vs single-model {davg:.4f}: margin "
                  f"{100 * margin:.2f} points >= 3")


class TestCriterion8ConnectivitySufficiency:
    SWEEP_P = (0.05, 0.1, 0.15, 0.2, 0.3)

    def test_accuracy_flat_above_threshold(self):
        t0 = time.time()
        traces = run_all([(seed, dict(n_clients=50, topology_p=p))
                          for p in self.SWEEP_P for seed in range(N_SEEDS)])
        means = {}
        for r, p in enumerate(self.SWEEP_P):
            finals = [trace[-1].test_accuracy for trace in traces[r * N_SEEDS : (r + 1) * N_SEEDS]]
            means[p] = float(np.mean(finals))
        sufficient = [means[p] for p in (0.15, 0.2, 0.3)]
        spread = max(sufficient) - min(sufficient)
        assert spread <= 0.01
        elapsed = time.time() - t0
        assert elapsed < 900.0
        report(8, f"means {[f'{p}:{means[p]:.4f}' for p in self.SWEEP_P]}; spread above "
                  f"p=0.15 is {100 * spread:.2f} points <= 1; p=0.05 reaches "
                  f"{means[0.05]:.4f}; {elapsed:.0f}s")


class TestCriterion9GradientCorrectness:
    def test_backprop_matches_central_differences(self):
        run_check(9, "gradient-matches-finite-differences")


class TestCriterion10Determinism:
    CONFIG = """
n_clients = 6
k = 2
T = 2
data.samples_per_client = 30
model.hidden = 4
n_seeds = 2
topology.p = 0.7
"""

    @pytest.mark.parametrize("algorithm", ["dfca", "ifca", "davg"])
    def test_repeated_runs_byte_identical(self, tmp_path, monkeypatch, algorithm):
        monkeypatch.setenv("DFCA_OUTPUT_ROOT", str(tmp_path / "a"))
        config = tmp_path / "repro.cfg"
        config.write_text(self.CONFIG + f"algorithm = {algorithm}\n")
        assert cmd_run(str(config)) == 0
        first = {p.relative_to(tmp_path / "a"): p.read_bytes()
                 for p in sorted((tmp_path / "a").rglob("trace.csv"))}
        monkeypatch.setenv("DFCA_OUTPUT_ROOT", str(tmp_path / "b"))
        assert cmd_run(str(config)) == 0
        second = {p.relative_to(tmp_path / "b"): p.read_bytes()
                  for p in sorted((tmp_path / "b").rglob("trace.csv"))}
        assert first.keys() == second.keys() and len(first) == 2
        assert first == second
        report(10, f"{algorithm}: repeated runs produced byte-identical traces "
                   f"({len(first)} seed files)")
