"""Self-checks of the benchmark: python3 -m pytest -q benchmarks

The workload checks run each workload twice at one seed (about three
minutes on two cores); the rest take seconds.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
from gate import TOLERANCE, kernel_errors  # noqa: E402
from gen import PRESETS, generate, write_dataset  # noqa: E402

COUNTS = ("models.pair_passes_per_epoch", "diagnostics.encodes_per_row",
          "clustering.kmeans_calls_per_epoch", "operators.edges_rewired",
          "models.encode_calls_per_epoch", "models.backprop_calls_per_epoch",
          "operators.omega_frac")


def test_same_seed_gives_same_bytes(tmp_path):
    a = write_dataset(generate(PRESETS["cora"], 7), tmp_path / "a")
    b = write_dataset(generate(PRESETS["cora"], 7), tmp_path / "b")
    c = write_dataset(generate(PRESETS["cora"], 8), tmp_path / "c")
    names = sorted(p.name for p in a.iterdir())
    assert names == ["edges.tsv", "features.tsv", "labels.tsv", "meta.json"]
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes()
    assert (a / "edges.tsv").read_bytes() != (c / "edges.tsv").read_bytes()


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_presets_hit_their_sizes(preset):
    p = PRESETS[preset]
    t0 = time.perf_counter()
    data = generate(p, 0)
    assert time.perf_counter() - t0 < 5.0
    labels, edges, x = data["labels"], data["edges"], data["features"]
    assert labels.size == p.n_nodes and x.shape == (p.n_nodes, p.n_features)
    assert data["k_clusters"] == len(p.block_shares)
    assert edges.shape == (p.n_edges, 2)
    assert np.all(edges[:, 0] < edges[:, 1])
    assert np.unique(edges[:, 0] * p.n_nodes + edges[:, 1]).size == p.n_edges
    degree = np.bincount(edges.ravel(), minlength=p.n_nodes)
    assert degree.min() >= 1
    homophily = np.mean(labels[edges[:, 0]] == labels[edges[:, 1]])
    assert abs(homophily - p.homophily) < 0.01
    assert set(np.unique(x)) <= {0, 1} and x.sum(axis=1).min() >= 1


def test_dataset_loads_through_the_package(tmp_path):
    mods = bench.load_package()
    data = generate(PRESETS["cora"], 1)
    graph = mods["graphio"].load_dataset(write_dataset(data, tmp_path / "d"))
    assert graph.n_edges == PRESETS["cora"].n_edges
    np.testing.assert_array_equal(graph.labels, data["labels"])
    np.testing.assert_array_equal(graph.features, data["features"])


def test_gate_accepts_the_kernels_and_rejects_a_perturbed_one():
    mods = bench.load_package()
    rng = np.random.default_rng(0)
    n = 80
    upper = np.triu(rng.random((n, n)) < 0.1, k=1)
    a = sp.csr_matrix((upper | upper.T).astype(np.float64))
    z = rng.standard_normal((n, 16))
    m = mods["models"]
    errors = kernel_errors(z, a, m.recon_loss, m.recon_grad_z)
    assert max(errors.values()) <= TOLERANCE

    def off_by_a_bit(z, a, weighting="plain"):
        return m.recon_grad_z(z, a, weighting=weighting) * (1.0 + 1e-8)

    errors = kernel_errors(z, a, m.recon_loss, off_by_a_bit)
    assert errors["recon_grad_z.plain"] > TOLERANCE
    assert errors["recon_grad_z.pos_weighted"] > TOLERANCE


def test_tail_percentile_keeps_ten_samples_above():
    q, value = bench.tail_percentile(np.arange(1.0, 31.0))
    assert q == 68 and np.sum(np.arange(1.0, 31.0) > value) == 10
    assert bench.tail_percentile(np.arange(12.0))[0] == 50


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    command = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(command + ["--workload", "cora-pretrain", "--seed", "0",
                                     "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture(scope="module")
def twice():
    """Each workload measured twice at one seed, traced."""
    return {name: [bench.measure(name, 3, 0.0, trace=True)["result"] for _ in range(2)]
            for name in bench.WORKLOADS}


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_counts_repeat_exactly(twice, workload):
    first, second = twice[workload]
    assert first["correct"] and second["correct"]
    assert first["failed"] == 0 and second["failed"] == 0
    for name in COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_workloads_exercise_what_they_claim(twice):
    value = {name: {k: v["value"] for k, v in runs[0]["metrics"].items()}
             for name, runs in twice.items()}
    pre, diag, nodiag = (value["cora-pretrain"], value["cora-rdgae-diag"],
                         value["cora-rgae-nodiag"])
    assert pre["models.pair_passes_per_epoch"] == 2
    assert pre["clustering.kmeans_calls_per_epoch"] == 0
    assert pre["diagnostics.share"] == 0
    for v in (diag, nodiag):
        assert v["operators.omega_frac"] > 0 and v["operators.edges_rewired"] > 0
    # kmeans only fits the dgae centers once; gae assigns with it every epoch
    epochs = bench.WORKLOADS["cora-rdgae-diag"].epochs
    assert diag["clustering.kmeans_calls_per_epoch"] * epochs == pytest.approx(1.0)
    assert nodiag["clustering.kmeans_calls_per_epoch"] >= 1
    assert diag["diagnostics.share"] > 0.3
    assert nodiag["diagnostics.share"] < diag["diagnostics.share"] / 2
    assert diag["models.pair_passes_per_epoch"] > nodiag["models.pair_passes_per_epoch"]

