"""Shipping checklist for the package.

Each test here covers one numbered criterion end to end and appends a
one-line verdict (PASS / FAIL / SKIP) that conftest echoes after the
run summary. Criteria 5-7 exercise the real citation graph and need a
converted copy under $GAECLUST_DATA/cora (see the README for the
directory format); without it they skip with that reason and the rest
of the checklist still runs. The final scale check feeds a ~20k-node
graph through one reconstruction epoch under a memory budget that a
dense pair matrix would blow by an order of magnitude.
"""

import csv
import itertools
import json
import os
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

import conftest
from conftest import planted_partition
from test_operators import as_pairs, oracle_select, random_soft, simulate_rewrite

from gaeclust import (ExperimentConfig, TrainConfig, init_model, make_graph, pretrain, run,
                      save_dataset, train_joint, verify_theory)
from gaeclust.clustering import hungarian_map, kmeans, student_t_assign
from gaeclust.experiments import run_cells
from gaeclust.graphio import normalize_adjacency
from gaeclust.models import backprop_theta, dgae_clus_loss, encode, vgae_kl_prior
from gaeclust.operators import compute_centroid_nodes, upsilon_transform, xi_select
from gaeclust.pairs import recon_grad_z, recon_loss


@contextmanager
def report(label, desc):
    """Run a criterion body and record its verdict for the summary block."""
    try:
        yield
    except pytest.skip.Exception as exc:
        conftest.ACCEPTANCE_LINES.append(f"{label}: SKIP - {desc} ({exc})")
        raise
    except BaseException:
        conftest.ACCEPTANCE_LINES.append(f"{label}: FAIL - {desc}")
        raise
    conftest.ACCEPTANCE_LINES.append(f"{label}: PASS - {desc}")


# ---------------------------------------------------------------------------
# 1. loss identities


def test_criterion_1_identity_suite():
    with report("CRITERION 1", "loss identities hold to 1e-8 over 100 instances in < 10 s"):
        t0 = time.perf_counter()
        out = verify_theory(n_instances=100, seed=0)
        elapsed = time.perf_counter() - t0
        assert out["instances"] == 100
        for key, residual in out["residuals"].items():
            assert residual < 1e-8, f"{key} residual {residual:.3e}"
        assert elapsed < 10.0, f"identity suite took {elapsed:.1f} s"


# ---------------------------------------------------------------------------
# 2. closed-form gradients vs central finite differences


def _numeric_theta(model, loss_fn, h=1e-6):
    """Central finite differences of loss_fn over every encoder weight."""
    out = {}
    for key in sorted(model.weights):
        w = model.weights[key]
        g = np.zeros_like(w)
        for idx in np.ndindex(*w.shape):
            orig = w[idx]
            try:
                w[idx] = orig + h
                up = loss_fn()
                w[idx] = orig - h
                down = loss_fn()
            finally:
                w[idx] = orig
            g[idx] = (up - down) / (2.0 * h)
        out[key] = g
    return out


def _theta_rel_error(analytic, numeric):
    scale = 1.0 + max(float(np.max(np.abs(g))) for g in numeric.values())
    return max(float(np.max(np.abs(analytic[k] - numeric[k]))) / scale
               for k in numeric)


def test_criterion_2_gradient_suite():
    with report("CRITERION 2", "analytic gradients match finite differences to 1e-5 in < 60 s"):
        t0 = time.perf_counter()
        errors = dict(verify_theory(n_instances=1, seed=0)["grad_checks"])

        graph = planted_partition(10, 2, 0.7, 0.1, seed=3, feature_dim=6)
        a_prop = normalize_adjacency(graph, "propagation")
        x, a = graph.x, graph.adjacency

        model = init_model("gae", 6, seed=0)

        def gae_total():
            z, _ = encode(model, a_prop, x)
            return recon_loss(z, a, weighting="pos_weighted")

        z, caches = encode(model, a_prop, x)
        grads = backprop_theta(caches,
                               recon_grad_z(z, a, weighting="pos_weighted"))
        errors["theta_gae"] = _theta_rel_error(grads, _numeric_theta(model, gae_total))

        model = init_model("vgae", 6, seed=0)

        def vgae_total():
            # pin the reparameterization noise so the loss is a function
            # of the weights alone
            model.rng = np.random.default_rng(99)
            z, c = encode(model, a_prop, x, training=True)
            kl, _, _ = vgae_kl_prior(c["mu"], c["logstd"])
            return recon_loss(z, a, weighting="pos_weighted") + kl

        model.rng = np.random.default_rng(99)
        z, caches = encode(model, a_prop, x, training=True)
        kl, d_mu, d_logstd = vgae_kl_prior(caches["mu"], caches["logstd"])
        grads = backprop_theta(caches,
                               recon_grad_z(z, a, weighting="pos_weighted"),
                               d_mu, d_logstd)
        errors["theta_vgae"] = _theta_rel_error(grads, _numeric_theta(model, vgae_total))

        model = init_model("dgae", 6, seed=0)
        z0, _ = encode(model, a_prop, x)
        cm, _ = kmeans(z0, 2, seed=0)
        model.centers = cm.centers.copy()
        q_labels = student_t_assign(z0, model.centers).labels()
        rows = np.array([0, 1, 4, 7, 9])
        gamma = 0.5

        def dgae_total():
            z_now, _ = encode(model, a_prop, x)
            l_clus, _, _ = dgae_clus_loss(student_t_assign(z_now, model.centers), q_labels,
                                          rows=rows)
            return l_clus + gamma * recon_loss(z_now, a, weighting="pos_weighted")

        z, caches = encode(model, a_prop, x)
        _, grad_z, _ = dgae_clus_loss(student_t_assign(z, model.centers), q_labels, rows=rows)
        grads = backprop_theta(
            caches, grad_z + gamma * recon_grad_z(z, a, weighting="pos_weighted"))
        errors["theta_dgae"] = _theta_rel_error(grads, _numeric_theta(model, dgae_total))

        elapsed = time.perf_counter() - t0
        for name, err in errors.items():
            assert err < 1e-5, f"{name} gradient error {err:.3e}"
        assert elapsed < 60.0, f"gradient suite took {elapsed:.1f} s"


# ---------------------------------------------------------------------------
# 3. operators against independent oracles


def test_criterion_3_operator_oracles():
    with report("CRITERION 3", "selection, rewiring and label matching equal brute-force oracles"):
        # reliable-set filter on 1000 rows, exact agreement
        rng = np.random.default_rng(7)
        rows_checked = 0
        for batch in range(20):
            k = 2 + batch % 5
            p = random_soft(rng, 50, k, with_ties=True)
            alpha1 = float(rng.uniform(0.0, 0.9))
            alpha2 = float(rng.uniform(0.0, 0.4))
            got = xi_select(p, alpha1, alpha2)
            want = oracle_select(p.matrix, alpha1, alpha2)
            assert np.array_equal(got, want), (batch, alpha1, alpha2)
            rows_checked += 50
        assert rows_checked == 1000

        # rewiring on 50 random graphs, exact edge sets and provenance
        rng = np.random.default_rng(8)
        graphs_checked = 0
        while graphs_checked < 50:
            n, k = int(rng.integers(4, 21)), int(rng.integers(2, 5))
            a = conftest.random_graph(rng, n, p=0.35)
            z = rng.standard_normal((n, 3))
            p = random_soft(rng, n, k)
            omega = xi_select(p, 0.1, 0.0)
            if omega.size == 0:
                continue
            labels = p.labels()
            pi = compute_centroid_nodes(z, labels, omega, k)
            add, drop = [(True, True), (True, False), (False, True)][graphs_checked % 3]
            got = upsilon_transform(a, labels, omega, pi, allow_add=add, allow_drop=drop)
            edges, added, deleted = simulate_rewrite(
                a.toarray(), labels, set(omega.tolist()), pi,
                allow_add=add, allow_drop=drop)
            coo = sp.triu(got.adjacency, k=1).tocoo()
            assert {(int(u), int(v)) for u, v in zip(coo.row, coo.col)} == edges
            assert as_pairs(got.added_keys, n) == added
            assert as_pairs(got.deleted_keys, n) == deleted
            graphs_checked += 1

        # label matching vs full permutation enumeration up to K = 6
        rng = np.random.default_rng(9)
        for k in range(2, 7):
            for _ in range(20):
                n = int(rng.integers(k, 40))
                truth = rng.integers(0, k, size=n)
                pred = rng.integers(0, k, size=n)
                pi = hungarian_map(truth, pred, k)
                got = int(np.sum(pi[pred] == truth))
                best = max(int(np.sum(np.asarray(perm)[pred] == truth))
                           for perm in itertools.permutations(range(k)))
                assert got == best, (k, n)


# ---------------------------------------------------------------------------
# 4. synthetic end to end


def test_criterion_4_synthetic_end_to_end(blobs2):
    with report("CRITERION 4",
                "on the 2-community planted graph the rewiring run hits ACC 1.0 "
                "and leaves 2 star components"):
        t0 = time.perf_counter()
        graph = blobs2  # 20 nodes, p_in 0.8, p_out 0.05, degree one-hot features
        cfg = TrainConfig(gamma=0.001, lr=0.01, pretrain_epochs=150,
                          train_epochs=200, alpha1=0.3, m1=5, m2=5,
                          rethink=True, diag_stride=50)
        model = init_model("dgae", graph.x.shape[1], seed=0)
        pretrain(model, graph, cfg)
        model, trace, info = train_joint(model, graph, cfg, seed=0)
        elapsed = time.perf_counter() - t0

        assert info["epochs_run"] <= 200
        assert info["metrics"]["acc"] == 1.0, info["metrics"]

        omega = info["omega"]
        assert omega.size >= 2
        a_fin = info["self_supervision"].adjacency
        sub = a_fin[omega][:, omega]
        n_comp, comp = connected_components(sub, directed=False)
        assert n_comp == 2, f"{n_comp} components over the reliable set"
        pred = info["pred_labels"][omega]
        for c in range(n_comp):
            members = np.where(comp == c)[0]
            assert len(set(pred[members].tolist())) == 1  # label-pure component
            deg = np.asarray(sub[members][:, members].sum(axis=1)).ravel()
            # the centroid node is wired to every other member: a spanning star
            assert deg.max() == members.size - 1
        assert elapsed < 10.0, f"synthetic run took {elapsed:.1f} s"


# ---------------------------------------------------------------------------
# 5-7. citation-graph reproduction (needs $GAECLUST_DATA/cora)

CORA_BANDS = {"dgae": 70.2, "r_dgae": 73.7, "gae": 61.3, "r_gae": 65.8}
CORA_TOL = 4.0


@pytest.fixture(scope="module")
def cora_runs(tmp_path_factory):
    """Shared experiment results, or a skip-reason string when the corpus
    is unavailable (the tests skip inside their report block so the
    checklist still prints a line for each criterion)."""
    root = os.environ.get("GAECLUST_DATA")
    if not root:
        return ("GAECLUST_DATA is not set; point it at a directory holding "
                "cora/ in the dataset-directory format")
    path = Path(root) / "cora"
    if not path.is_dir():
        return (f"no dataset directory at {path}; convert the citation "
                "corpus first (see README)")
    out_root = tmp_path_factory.mktemp("cora")
    cells = [ExperimentConfig(dataset=str(path), model=arch, rethink=rethink,
                              out=str(out_root / name), seeds=(0, 1, 2), diag_stride=1000)
             for name, arch, rethink in [("dgae", "dgae", False), ("r_dgae", "dgae", True),
                                         ("gae", "gae", False), ("r_gae", "gae", True)]]
    t0 = time.perf_counter()
    run_cells(cells[:2], out_root)  # the dgae pair alone, timed for criterion 5
    pair_seconds = time.perf_counter() - t0
    # the whole grid reads the finished dgae pair back and shares its pretraining
    record = run_cells(cells, out_root)
    runs = {Path(cell["config"]["out"]).name: cell for cell in record["cells"]}
    runs["pair_seconds"] = pair_seconds
    return runs


def test_criterion_5_citation_accuracy(cora_runs):
    with report("CRITERION 5", "citation-graph best-of-3 accuracies land in the "
                               "published bands on shared pretraining"):
        if isinstance(cora_runs, str):
            pytest.skip(cora_runs)
        best = {name: cora_runs[name]["best"]["acc"] * 100.0 for name in CORA_BANDS}
        for name, center in CORA_BANDS.items():
            assert abs(best[name] - center) <= CORA_TOL, (name, best[name])
        assert best["r_dgae"] >= best["dgae"]
        assert best["r_gae"] > best["gae"]
        for plain, rethought in [("dgae", "r_dgae"), ("gae", "r_gae")]:
            for a, b in zip(cora_runs[plain]["per_seed"], cora_runs[rethought]["per_seed"]):
                assert a["pretrain_sha256"] == b["pretrain_sha256"]
        assert cora_runs["pair_seconds"] < 900.0


def test_criterion_6_citation_runtime(cora_runs):
    with report("CRITERION 6", "clustering-phase runtime within 10x the published "
                               "best and <= 2x the plain variant"):
        if isinstance(cora_runs, str):
            pytest.skip(cora_runs)
        r_times = [e["wall_time_s"] for e in cora_runs["r_dgae"]["per_seed"]]
        d_times = [e["wall_time_s"] for e in cora_runs["dgae"]["per_seed"]]
        assert min(r_times) <= 10.0 * 28.981, min(r_times)
        assert np.mean(r_times) <= 2.0 * np.mean(d_times), (r_times, d_times)


def test_criterion_7_diagnostic_shape(cora_runs):
    with report("CRITERION 7", "alignment diagnostics start above 0.9 and the "
                               "reliable set grows through >= 90% of updates"):
        if isinstance(cora_runs, str):
            pytest.skip(cora_runs)
        steps_up, steps_total = 0, 0
        for entry in cora_runs["r_dgae"]["per_seed"]:
            with open(entry["trace_csv"], newline="") as fh:
                first = next(csv.DictReader(fh))
            assert float(first["lambda_fr"]) > 0.9, entry["seed"]
            assert float(first["lambda_fd"]) > 0.9, entry["seed"]
            sizes = [size for _, size in entry["omega_sizes"]]
            steps_up += sum(b >= a for a, b in zip(sizes, sizes[1:]))
            steps_total += max(0, len(sizes) - 1)
        assert steps_total > 0
        assert steps_up / steps_total >= 0.9, (steps_up, steps_total)


# ---------------------------------------------------------------------------
# 8. stop reason recorded and honored


def test_criterion_8_stop_reason(blobs2, tmp_path):
    with report("CRITERION 8", "every rewiring run stops at the cap or on reliable-set "
                               "coverage and records which"):
        ds = tmp_path / "planted"
        save_dataset(blobs2, ds)
        seen = set()
        for tag, overrides in [
            ("lenient", {}),
            # unreachable thresholds force the epoch cap
            ("strict", {"alpha1": 1.0, "alpha2": 0.999, "convergence_fraction": 1.0}),
        ]:
            config = ExperimentConfig(dataset=str(ds), model="dgae", rethink=True,
                                      out=str(tmp_path / tag), seeds=(0, 1),
                                      pretrain_epochs=40, train_epochs=30,
                                      m1=5, m2=5, diag_stride=10, **overrides)
            payload = json.loads(Path(run(config).path).read_text())
            n = payload["dataset"]["n_nodes"]
            for entry in payload["per_seed"]:
                reason = entry["stop_reason"]
                assert reason in ("epoch_cap", "omega_converged")
                seen.add(reason)
                if reason == "omega_converged":
                    threshold = config.convergence_fraction * n
                    assert entry["omega_final"] >= threshold
                    assert entry["epochs_run"] <= config.train_epochs
                else:
                    assert entry["epochs_run"] == config.train_epochs
        assert seen == {"epoch_cap", "omega_converged"}, seen


# ---------------------------------------------------------------------------
# scale: one reconstruction epoch at ~20k nodes without a dense pair matrix


def test_scale_blocked_reconstruction():
    with report("SCALE CHECK", "one reconstruction epoch at N=19717 stays under "
                               "600 MB (a dense pair matrix alone needs ~3.1 GB)"):
        n = 19717
        rng = np.random.default_rng(0)
        ring = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)
        extra = rng.integers(0, n, size=(2 * n, 2))
        extra = extra[extra[:, 0] != extra[:, 1]]
        edges = np.vstack([ring, extra])
        features = rng.standard_normal((n, 8))
        graph = make_graph(n, edges, features=features, k_clusters=3, name="scale")
        cfg = TrainConfig(pretrain_epochs=1)
        model = init_model("gae", 8, seed=0)

        tracemalloc.start()
        try:
            pretrain(model, graph, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 600 * 1024 * 1024, f"peak {peak / 1e6:.0f} MB"
