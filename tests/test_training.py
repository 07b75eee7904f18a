"""The joint clustering-phase loop and its rewiring schedule."""

import copy
import tracemalloc

import numpy as np
import pytest

import gaeclust.clustering
import gaeclust.diagnostics
import gaeclust.models
import gaeclust.operators
import gaeclust.pairs
import gaeclust.training
from gaeclust import (ConfigError, StateError, TrainConfig, TrainingError, init_model, pretrain,
                      train_joint)
from gaeclust.clustering import ClusterModel, hungarian_map, kmeans, student_t_assign
from gaeclust.diagnostics import TRACE_COLUMNS
from gaeclust.graphio import normalize_adjacency
from gaeclust.models import (EMBED_DIM, dgae_clus_loss, encode, reconstruction_step,
                             save_checkpoint, vgae_kl_prior)
from gaeclust.operators import passthrough_graph
from gaeclust.pairs import PairPass, recon_loss, regularizer_R
from gaeclust.training import model_assignment

import reference_loop
from conftest import dense, eval_caches, planted_partition


def fresh_model(graph, arch, seed=0, pretrain_epochs=30):
    model = init_model(arch, graph.x.shape[1], seed=seed)
    pretrain(model, graph, TrainConfig(pretrain_epochs=pretrain_epochs))
    return model


class TestDenseReference:
    """train_joint against tests/reference_loop.py, the dense loop written
    from the paper's definitions: every column the reference computes and
    the final weights (and dgae's centers) agree to 1e-10 relative, counts
    exactly. alpha1 keeps Omega short of N, so Xi, the added and the
    dropped edges all move; each model runs at the byte gate's alpha1."""

    def assert_matches_reference(self, graph, arch, rethink, alpha1):
        model = fresh_model(graph, arch)
        cfg = TrainConfig(train_epochs=8, rethink=rethink, alpha1=alpha1, m1=2, m2=3,
                          convergence_fraction=1.0, diag_stride=1)
        weights = {key: w.copy() for key, w in model.weights.items()}
        rng = copy.deepcopy(model.rng)
        model, trace, info = train_joint(model, graph, cfg, seed=1)
        rows, ref, ref_acc = reference_loop.train(
            arch, weights, graph.adjacency.toarray(), dense(graph.x), graph.labels,
            graph.k_clusters, epochs=cfg.train_epochs, lr=cfg.lr, rethink=rethink,
            alpha1=cfg.alpha1, alpha2=cfg.alpha2, m1=cfg.m1, m2=cfg.m2,
            convergence_fraction=cfg.convergence_fraction, seed=1, gamma=cfg.gamma, rng=rng)
        assert len(rows) == len(trace.rows) == cfg.train_epochs
        for want, got in zip(rows, trace.rows):
            for column, value in want.items():
                if isinstance(value, (int, np.integer)):
                    assert got[column] == value, column
                else:
                    assert abs(got[column] - value) <= 1e-10 * abs(value), column
        got = {**model.weights, **({"centers": model.centers} if arch == "dgae" else {})}
        assert got.keys() == ref.keys()
        for key, w in ref.items():
            assert np.max(np.abs(got[key] - w)) <= 1e-10 * np.max(np.abs(w)), key
        assert info["metrics"]["acc"] == pytest.approx(ref_acc, rel=1e-10)
        if rethink:
            sizes = trace.column("omega_size")
            assert 0 < min(sizes) and max(sizes) < graph.n_nodes
            assert max(trace.column("links_added_true")) > 0
            assert max(trace.column("links_deleted_false")) > 0

    @pytest.mark.parametrize("rethink", [False, True], ids=["plain", "rethink"])
    def test_gae_matches_the_dense_reference(self, blobs3, rethink):
        self.assert_matches_reference(blobs3, "gae", rethink, alpha1=0.9999)

    @pytest.mark.parametrize("rethink", [False, True], ids=["plain", "rethink"])
    def test_vgae_matches_the_dense_reference(self, blobs3, rethink):
        self.assert_matches_reference(blobs3, "vgae", rethink, alpha1=0.9999)

    @pytest.mark.parametrize("rethink", [False, True], ids=["plain", "rethink"])
    def test_dgae_matches_the_dense_reference(self, blobs3, rethink):
        self.assert_matches_reference(blobs3, "dgae", rethink, alpha1=0.2)


class TestModelAssignment:
    def test_kmeans_path_returns_cluster_model(self, blobs3):
        model = fresh_model(blobs3, "gae", pretrain_epochs=5)
        a_prop = normalize_adjacency(blobs3, "propagation")
        z, _ = encode(model, a_prop, blobs3.x)
        pred, cm = model_assignment(model, z, 3, seed=0)
        assert isinstance(cm, ClusterModel)
        _, expected = kmeans(z, 3, 0)
        assert np.array_equal(pred, expected)

    def test_dgae_path_uses_centers(self, blobs3):
        model = init_model("dgae", blobs3.x.shape[1], seed=0)
        model.centers = np.random.default_rng(0).standard_normal((3, EMBED_DIM))
        a_prop = normalize_adjacency(blobs3, "propagation")
        z, _ = encode(model, a_prop, blobs3.x)
        pred, p = model_assignment(model, z, 3, seed=0)
        assert np.array_equal(p.matrix, student_t_assign(z, model.centers).matrix)
        assert p.matrix.shape == (blobs3.n_nodes, 3)
        assert pred.dtype == np.int64 and np.array_equal(pred, p.labels())

    def test_dgae_without_centers(self, blobs3):
        model = init_model("dgae", blobs3.x.shape[1], seed=0)
        with pytest.raises(StateError):
            model_assignment(model, np.zeros((5, EMBED_DIM)), 3, seed=0)

    def test_gaussian_rebuild_runs_once_per_xi_epoch(self, blobs3, monkeypatch):
        # the k-means fit is turned into confidences only where Xi reads them
        fits = []
        real = gaeclust.training.gaussian_soft_assign
        monkeypatch.setattr(gaeclust.training, "gaussian_soft_assign",
                            lambda z, centers, labels: fits.append(centers)
                            or real(z, centers, labels))
        model = fresh_model(blobs3, "gae", pretrain_epochs=10)
        cfg = TrainConfig(train_epochs=6, rethink=True, m1=2, m2=2, alpha1=0.9,
                          convergence_fraction=1.0, diag_stride=10)
        _, _, info = train_joint(model, blobs3, cfg)
        assert len(info["omega_sizes"]) == 3
        assert len(fits) == 3 and all(c.shape == (3, EMBED_DIM) for c in fits)


class TestBaselineLoop:
    def test_no_rewiring_in_baseline_regime(self, blobs3):
        model = fresh_model(blobs3, "gae", pretrain_epochs=10)
        cfg = TrainConfig(train_epochs=4, rethink=False, diag_stride=2)
        model, trace, info = train_joint(model, blobs3, cfg)
        assert info["stop_reason"] == "epoch_cap"
        assert info["epochs_run"] == 4
        assert len(trace.rows) == 4
        assert all(s == blobs3.n_nodes for s in trace.column("omega_size"))
        assert all(v == 0 for v in trace.column("links_added_true"))
        assert all(v == 0 for v in trace.column("links_deleted_true"))
        assert info["omega_sizes"] == []
        assert info["self_supervision"].added_keys.size == 0
        assert info["metrics"] is not None
        assert info["pred_labels"].shape == (blobs3.n_nodes,)
        assert info["embedding"].shape == (blobs3.n_nodes, EMBED_DIM)

    def test_ablation_requires_rethink(self, blobs3):
        model = fresh_model(blobs3, "gae", pretrain_epochs=2)
        with pytest.raises(ConfigError):
            train_joint(model, blobs3, TrainConfig(train_epochs=2, rethink=False,
                                                   ablation="no_xi"))

    def test_fresh_optimizer_each_phase(self, blobs3):
        model = fresh_model(blobs3, "gae", pretrain_epochs=8)
        assert model.adam.step_count == 8
        _, _, info = train_joint(model, blobs3, TrainConfig(train_epochs=3, diag_stride=10))
        assert model.adam.step_count == info["epochs_run"]

    def test_vgae_runs_and_reports_losses(self, blobs3, monkeypatch):
        model = fresh_model(blobs3, "vgae", pretrain_epochs=5)
        samples = []  # (mu, logstd) of each step's training-mode encode
        real_encode = gaeclust.models.encode

        def recording_encode(*args, training=False, **kwargs):
            z, caches = real_encode(*args, training=training, **kwargs)
            if training:
                samples.append((caches["mu"], caches["logstd"]))
            return z, caches

        monkeypatch.setattr(gaeclust.models, "encode", recording_encode)
        _, trace, info = train_joint(model, blobs3,
                                     TrainConfig(train_epochs=3, diag_stride=10))
        assert all(np.isfinite(v) for v in trace.column("l_total"))
        assert len(samples) == len(trace.rows) == 3
        # l_bce is the reconstruction alone; l_total adds the prior KL of the step's sample
        for row, (mu, logstd) in zip(trace.rows, samples):
            kl = vgae_kl_prior(mu, logstd)[0]
            assert kl > 0.0
            assert row["l_total"] == row["l_bce"] + kl
        assert all(v is None for v in trace.column("l_clus"))

    def test_unlabeled_graph_skips_metrics(self, blobs3):
        from gaeclust import make_graph
        g = make_graph(blobs3.n_nodes, blobs3.edge_array(), features=blobs3.x,
                       k_clusters=3)
        model = fresh_model(g, "gae", pretrain_epochs=3)
        _, trace, info = train_joint(model, g, TrainConfig(train_epochs=3, diag_stride=2))
        assert info["metrics"] is None
        assert all(v is None for v in trace.column("acc_all"))
        # internal decomposition terms do not need labels, and keep the stride
        for col in ("l_C_self", "l_C_clus", "l_R_self"):
            assert [v is not None for v in trace.column(col)] == [True, False, True], col
        # lambda_FR and lambda_FD need labels on every row
        assert not [(row["epoch"], col) for row in trace.rows for col in row
                    if col.startswith(("lambda_fr", "lambda_fd")) and row[col] is not None]

    def test_diag_stride_thins_diagnostics(self, blobs3):
        model = fresh_model(blobs3, "gae", pretrain_epochs=3)
        _, trace, _ = train_joint(model, blobs3, TrainConfig(train_epochs=7, diag_stride=3))
        fr = trace.column("lambda_fr")
        assert [i for i, v in enumerate(fr) if v is not None] == [0, 3, 6]
        lc = trace.column("l_C_self")
        assert [i for i, v in enumerate(lc) if v is not None] == [0, 3, 6]


class TestDiagnosticsOnlyRead:
    """The diagnostic columns read the training state and never change it."""

    @pytest.mark.parametrize("arch, alpha1", [("gae", 0.9999), ("vgae", 0.9999), ("dgae", 0.5)])
    def test_diag_stride_leaves_training_unchanged(self, blobs3, tmp_path, arch, alpha1):
        def run(stride):
            model = fresh_model(blobs3, arch, pretrain_epochs=10)
            cfg = TrainConfig(train_epochs=6, rethink=True, m1=2, m2=2, alpha1=alpha1,
                              convergence_fraction=1.0, diag_stride=stride)
            model, trace, info = train_joint(model, blobs3, cfg)
            save_checkpoint(model, tmp_path / f"stride{stride}.json")
            return (tmp_path / f"stride{stride}.json").read_bytes(), trace, info

        every, trace_every, info = run(1)
        once, trace_once, _ = run(7)
        # the loop ran to its cap and rewired, and only one run took diagnostics
        assert info["epochs_run"] == 6 and info["self_supervision"].added_keys.size
        assert None not in trace_every.column("lambda_fd")
        assert trace_once.column("lambda_fd")[1:] == [None] * 5
        assert every == once
        for col in ("l_total", "omega_size", "acc_all"):
            assert trace_every.column(col) == trace_once.column(col), col


class TestRethinkLoop:
    def test_dgae_full_pipeline_on_blobs(self, blobs3):
        model = fresh_model(blobs3, "dgae", pretrain_epochs=40)
        cfg = TrainConfig(train_epochs=25, rethink=True, m1=10, m2=5, gamma=0.001,
                          alpha1=0.3, diag_stride=5)
        model, trace, info = train_joint(model, blobs3, cfg)
        assert model.centers is not None
        assert model.centers.shape == (3, EMBED_DIM)
        assert "centers" in model.adam.m
        assert len(info["omega_sizes"]) >= 1
        assert info["omega_sizes"][0][0] == 0  # first refresh at epoch 0
        assert info["stop_reason"] in ("epoch_cap", "omega_converged")
        if info["stop_reason"] == "omega_converged":
            assert info["epochs_run"] == len(trace.rows) < cfg.train_epochs
            assert trace.rows[-1]["omega_size"] >= 0.9 * blobs3.n_nodes
        # the final supervision graph differs from the original
        prov = (info["self_supervision"].added_keys.size
                + info["self_supervision"].deleted_keys.size)
        assert prov > 0
        # reliability split exists whenever omega is a strict subset
        for row in trace.rows:
            if row["omega_size"] < blobs3.n_nodes and row["omega_size"] > 0:
                assert row["acc_omega"] is not None
                assert row["acc_complement"] is not None

    def test_convergence_stops_early_and_names_reason(self, blobs2):
        model = fresh_model(blobs2, "dgae", pretrain_epochs=30)
        cfg = TrainConfig(train_epochs=30, rethink=True, m1=5, m2=5)
        _, trace, info = train_joint(model, blobs2, cfg)
        assert info["stop_reason"] == "omega_converged"
        assert info["epochs_run"] < 30
        assert info["epochs_run"] == len(trace.rows)
        assert trace.rows[-1]["omega_size"] >= cfg.convergence_fraction * blobs2.n_nodes
        # the converged epoch still did its scheduled work
        assert trace.rows[-1]["l_total"] is not None

    def test_strict_convergence_hits_epoch_cap(self, blobs2):
        model = fresh_model(blobs2, "dgae", pretrain_epochs=10)
        cfg = TrainConfig(train_epochs=4, rethink=True, m1=2, m2=2,
                          alpha1=1.0, alpha2=0.999, convergence_fraction=1.0)
        _, trace, info = train_joint(model, blobs2, cfg)
        assert info["stop_reason"] == "epoch_cap"
        assert info["epochs_run"] == 4

    def test_empty_reliable_set_is_survivable(self, blobs3):
        model = fresh_model(blobs3, "dgae", pretrain_epochs=5)
        cfg = TrainConfig(train_epochs=4, rethink=True, m1=2, m2=2,
                          alpha1=1.0, alpha2=0.999, diag_stride=10)
        _, trace, info = train_joint(model, blobs3, cfg)
        assert info["empty_omega_epochs"] > 0
        empty_rows = [r for r in trace.rows if r["omega_size"] == 0]
        assert empty_rows
        assert all(r["l_clus"] == 0.0 for r in empty_rows)
        assert all(r["acc_omega"] is None for r in empty_rows)

    def test_dgae_centers_initialized_from_pretrained_embedding(self, blobs3):
        model = fresh_model(blobs3, "dgae", pretrain_epochs=10)
        assert model.centers is None
        a_prop = normalize_adjacency(blobs3, "propagation")
        z0, _ = encode(model, a_prop, blobs3.x)
        cm0, _ = kmeans(z0, 3, 0)
        train_joint(model, blobs3, TrainConfig(train_epochs=0, rethink=True))
        assert np.array_equal(model.centers, cm0.centers)

    def test_gamma_zero_trains_pure_clustering(self, blobs3):
        model = fresh_model(blobs3, "dgae", pretrain_epochs=5)
        cfg = TrainConfig(train_epochs=3, rethink=True, gamma=0.0, diag_stride=10)
        _, trace, _ = train_joint(model, blobs3, cfg)
        assert all(v is None for v in trace.column("l_bce"))
        assert trace.column("l_total") == trace.column("l_clus")

    def test_deterministic_for_identical_config(self, blobs3):
        def run():
            model = fresh_model(blobs3, "dgae", pretrain_epochs=10)
            cfg = TrainConfig(train_epochs=6, rethink=True, m1=3, m2=3,
                              diag_stride=2)
            return train_joint(model, blobs3, cfg)

        m1, t1, i1 = run()
        m2, t2, i2 = run()
        for col in ("acc_all", "omega_size", "l_total", "lambda_fr", "lambda_fd",
                    "links_total"):
            assert t1.column(col) == t2.column(col), col
        for key in m1.weights:
            assert np.array_equal(m1.weights[key], m2.weights[key])
        assert np.array_equal(m1.centers, m2.centers)
        assert np.array_equal(i1["pred_labels"], i2["pred_labels"])
        assert i1["stop_reason"] == i2["stop_reason"]


class TestAblations:
    def run_dgae(self, graph, ablation, epochs=6, **kwargs):
        model = fresh_model(graph, "dgae", pretrain_epochs=10)
        defaults = dict(train_epochs=epochs, rethink=True, m1=2, m2=2,
                        diag_stride=10)
        defaults.update(kwargs)
        cfg = TrainConfig(ablation=ablation, **defaults)
        return train_joint(model, graph, cfg)

    def test_no_xi_keeps_every_node(self, blobs3):
        _, trace, info = self.run_dgae(blobs3, "no_xi")
        assert all(s == blobs3.n_nodes for s in trace.column("omega_size"))
        assert info["omega_sizes"] == []
        assert info["stop_reason"] == "epoch_cap"  # no refresh, no convergence check
        # rewiring still runs, sourced from the full node set
        total_prov = (info["self_supervision"].added_keys.size
                      + info["self_supervision"].deleted_keys.size)
        assert total_prov > 0

    def test_no_upsilon_keeps_original_graph(self, blobs3):
        _, trace, info = self.run_dgae(blobs3, "no_upsilon")
        assert info["self_supervision"].added_keys.size == 0
        assert info["self_supervision"].deleted_keys.size == 0
        assert all(v == blobs3.n_edges for v in trace.column("links_total"))
        assert len(info["omega_sizes"]) >= 1  # the sampler still runs

    def test_no_add_edge(self, blobs3):
        _, _, info = self.run_dgae(blobs3, "no_add_edge")
        assert info["self_supervision"].added_keys.size == 0
        assert info["self_supervision"].deleted_keys.size > 0

    def test_no_drop_edge(self, blobs3):
        _, _, info = self.run_dgae(blobs3, "no_drop_edge")
        assert info["self_supervision"].deleted_keys.size == 0
        assert info["self_supervision"].added_keys.size > 0

    def test_no_alpha1_widens_selection(self, blobs3):
        _, _, strict = self.run_dgae(blobs3, "none", epochs=1, alpha1=0.99, alpha2=0.0)
        _, _, loose = self.run_dgae(blobs3, "no_alpha1", epochs=1, alpha1=0.99, alpha2=0.0)
        assert loose["omega_sizes"][0][1] >= strict["omega_sizes"][0][1]
        # with both thresholds zeroed out, everything is reliable
        assert loose["omega_sizes"][0][1] == blobs3.n_nodes

    def test_no_alpha2_drops_margin_requirement(self, blobs3):
        _, _, strict = self.run_dgae(blobs3, "none", epochs=1, alpha1=0.0, alpha2=0.9)
        _, _, loose = self.run_dgae(blobs3, "no_alpha2", epochs=1, alpha1=0.0, alpha2=0.9)
        assert loose["omega_sizes"][0][1] >= strict["omega_sizes"][0][1]
        assert loose["omega_sizes"][0][1] == blobs3.n_nodes

    def test_protection_rewires_once_then_freezes(self, blobs3):
        _, trace, info = self.run_dgae(blobs3, "fd_protection_single_step", epochs=5)
        totals = trace.column("links_total")
        assert len(set(totals)) == 1  # graph fixed after the single rewrite
        assert (info["self_supervision"].added_keys.size
                + info["self_supervision"].deleted_keys.size) > 0

    def test_correction_delay_schedules_late_start(self, blobs3):
        _, trace, info = self.run_dgae(blobs3, "fr_correction_delay:3", epochs=6,
                                       alpha1=0.3, alpha2=0.0)
        sizes = trace.column("omega_size")
        # baseline regime for the first 3 epochs
        assert sizes[:3] == [blobs3.n_nodes] * 3
        assert all(e >= 3 for e, _ in info["omega_sizes"])
        assert info["omega_sizes"][0][0] == 3
        for row in trace.rows[:3]:
            assert row["links_added_true"] == 0
            assert row["links_deleted_true"] == 0
            if row["lambda_fr"] is not None:
                assert row["lambda_fr"] == row["lambda_fr_baseline"]


def spy_on_operators(monkeypatch) -> tuple:
    """Record, per train_joint epoch, the reliable sets xi_select returns and
    the source sets upsilon_transform gets, as (epoch, sorted node array)."""
    epoch = [-1]
    xi_calls, upsilon_calls = [], []
    real_assign = gaeclust.training.model_assignment
    real_xi = gaeclust.training.xi_select
    real_upsilon = gaeclust.training.upsilon_transform

    def assign(*args, **kwargs):
        epoch[0] += 1  # one assignment per epoch, before its operators
        return real_assign(*args, **kwargs)

    def xi(*args, **kwargs):
        omega = real_xi(*args, **kwargs)
        xi_calls.append((epoch[0], omega.copy()))
        return omega

    def upsilon(a, labels, omega, pi, **kwargs):
        upsilon_calls.append((epoch[0], omega.copy()))
        return real_upsilon(a, labels, omega, pi, **kwargs)

    monkeypatch.setattr(gaeclust.training, "model_assignment", assign)
    monkeypatch.setattr(gaeclust.training, "xi_select", xi)
    monkeypatch.setattr(gaeclust.training, "upsilon_transform", upsilon)
    return xi_calls, upsilon_calls


class TestUpsilonSchedule:
    """When each ablation rewires, and around which source set."""

    def run(self, graph, monkeypatch, ablation):
        # alpha1 0.5 leaves 0 < |Omega| < N at every refresh on blobs3, so a
        # source of Omega and one of every node tell apart
        model = fresh_model(graph, "dgae", pretrain_epochs=10)
        cfg = TrainConfig(train_epochs=6, rethink=True, m1=3, m2=2, alpha1=0.5, alpha2=0.0,
                          diag_stride=10, convergence_fraction=1.0,
                          ablation=ablation)
        xi_calls, upsilon_calls = spy_on_operators(monkeypatch)
        _, _, info = train_joint(model, graph, cfg)
        assert info["epochs_run"] == cfg.train_epochs
        return xi_calls, upsilon_calls

    def test_none_rewires_every_m2_epochs_around_omega(self, blobs3, monkeypatch):
        xi_calls, upsilon_calls = self.run(blobs3, monkeypatch, "none")
        assert [e for e, _ in xi_calls] == [0, 3]
        assert all(0 < s.size < blobs3.n_nodes for _, s in xi_calls)
        assert [e for e, _ in upsilon_calls] == [0, 2, 4]
        # each rewiring uses the latest reliable set
        current = {0: xi_calls[0][1], 2: xi_calls[0][1], 4: xi_calls[1][1]}
        for e, src in upsilon_calls:
            assert np.array_equal(src, current[e]), e

    def test_no_xi_rewires_every_m2_epochs_around_every_node(self, blobs3, monkeypatch):
        xi_calls, upsilon_calls = self.run(blobs3, monkeypatch, "no_xi")
        assert xi_calls == []
        assert [e for e, _ in upsilon_calls] == [0, 2, 4]
        for _, src in upsilon_calls:
            assert np.array_equal(src, np.arange(blobs3.n_nodes))

    def test_protection_rewires_once_at_epoch_0_around_every_node(self, blobs3, monkeypatch):
        xi_calls, upsilon_calls = self.run(blobs3, monkeypatch, "fd_protection_single_step")
        assert xi_calls[0][0] == 0 and xi_calls[0][1].size < blobs3.n_nodes
        assert len(upsilon_calls) == 1
        epoch, src = upsilon_calls[0]
        assert epoch == 0
        assert np.array_equal(src, np.arange(blobs3.n_nodes))

    def test_correction_delay_starts_rewiring_late(self, blobs3, monkeypatch):
        _, upsilon_calls = self.run(blobs3, monkeypatch, "fr_correction_delay:3")
        assert [e for e, _ in upsilon_calls] == [3, 5]


def old_subset_accuracy(pred, truth, k, idx):
    """The per-subset accuracy train_joint reported before its rows shared
    one Hungarian matching: a matching of its own, then the mean over idx."""
    if idx.size == 0:
        return None
    pi = hungarian_map(truth, pred, k)
    return float(np.mean(pi[pred[idx]] == truth[idx]))


class TestSubsetAccuracy:
    def run(self, graph, monkeypatch, **kwargs):
        """The trace plus, per row, the predicted labels and Omega it scored."""
        preds = []
        real_eval = gaeclust.training.evaluate_clustering

        def evaluate(pred, truth, k):
            preds.append(np.array(pred))
            return real_eval(pred, truth, k)
        monkeypatch.setattr(gaeclust.training, "evaluate_clustering", evaluate)
        xi_calls, _ = spy_on_operators(monkeypatch)
        model = fresh_model(graph, "dgae", pretrain_epochs=10)
        defaults = dict(train_epochs=4, m1=1, m2=2, alpha2=0.0, diag_stride=10,
                        convergence_fraction=1.0)
        defaults.update(kwargs)
        _, trace, _ = train_joint(model, graph, TrainConfig(**defaults))
        return trace, preds, xi_calls

    def test_matches_a_matching_per_subset(self, blobs3, monkeypatch):
        trace, preds, xi_calls = self.run(blobs3, monkeypatch, rethink=True, alpha1=0.5)
        # m1 = 1: every row scores the reliable set drawn on its own epoch
        assert [e for e, _ in xi_calls] == list(range(len(trace.rows)))
        n, k, truth = blobs3.n_nodes, blobs3.k_clusters, blobs3.labels
        assert all(0 < omega.size < n for _, omega in xi_calls)
        for row, pred, (_, omega) in zip(trace.rows, preds, xi_calls):
            comp = np.setdiff1d(np.arange(n), omega)
            assert row["acc_omega"] == old_subset_accuracy(pred, truth, k, omega)
            assert row["acc_complement"] == old_subset_accuracy(pred, truth, k, comp)

    def test_empty_omega_has_no_accuracy(self, blobs3, monkeypatch):
        trace, _, _ = self.run(blobs3, monkeypatch, rethink=True, alpha1=1.0, alpha2=0.999)
        assert all(r["omega_size"] == 0 for r in trace.rows)
        assert all(r["acc_omega"] is None for r in trace.rows)
        assert all(r["acc_complement"] == r["acc_all"] for r in trace.rows)

    def test_full_omega_scores_every_node(self, blobs3, monkeypatch):
        trace, _, _ = self.run(blobs3, monkeypatch, rethink=False)
        assert all(r["omega_size"] == blobs3.n_nodes for r in trace.rows)
        assert all(r["acc_omega"] == r["acc_all"] for r in trace.rows)
        assert all(r["acc_complement"] is None for r in trace.rows)


class TestDgaeStep:
    def test_a_diverged_step_leaves_the_model_as_it_was(self, blobs3, monkeypatch):
        model = fresh_model(blobs3, "dgae", pretrain_epochs=5)
        z, caches = encode(model, normalize_adjacency(blobs3, "propagation"), blobs3.x,
                           training=False)
        model.centers = kmeans(z, 3, 0)[0].centers.copy()
        pred, fit = model_assignment(model, z, 3, seed=0)
        kl = dgae_clus_loss(fit, pred)
        a_cs = passthrough_graph(blobs3.adjacency)
        # -inf edge logits: l_bce is inf while its gradient stays finite
        logits = np.full(a_cs.adjacency.nnz, -np.inf)
        monkeypatch.setattr(gaeclust.pairs, "edge_logits", lambda z, a: logits)
        assert recon_loss(PairPass(z), a_cs.adjacency, "pos_weighted") == np.inf
        before = copy.deepcopy((model.weights, model.centers, model.adam))
        with pytest.raises(TrainingError):
            gaeclust.training._dgae_step(model, caches, kl, a_cs, gamma=1.0)
        weights, centers, adam = before
        assert model.weights.keys() == weights.keys()
        assert all(np.array_equal(model.weights[k], weights[k]) for k in weights)
        assert np.array_equal(model.centers, centers)
        assert model.adam.step_count == adam.step_count
        assert all(np.array_equal(model.adam.m[k], adam.m[k]) for k in adam.m)


def count_calls(monkeypatch, events, module, name, tag):
    """Append tag to events on every call of module.name."""
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        events.append(tag)
        return real(*args, **kwargs)
    monkeypatch.setattr(module, name, wrapper)


class TestEpochReuse:
    """An epoch with diagnostics on shares one encode and one pair pass."""

    def cfg(self, alpha1=0.3, epochs=4):
        return TrainConfig(train_epochs=epochs, rethink=True, m1=2, m2=2, alpha1=alpha1,
                           diag_stride=1, convergence_fraction=1.0)

    def gae_cfg(self):
        # k-means confidences are sharp: at alpha1 0.3 every node is reliable
        # on epoch 0 and the run stops there
        return self.cfg(alpha1=0.999)

    def count_encodes_and_sweeps(self, monkeypatch) -> list:
        events = []
        count_calls(monkeypatch, events, gaeclust.training, "encode", "encode")
        # reconstruction_step encodes through the models module's binding
        count_calls(monkeypatch, events, gaeclust.models, "encode", "encode")
        count_calls(monkeypatch, events, gaeclust.pairs.PairPass, "_begin", "pair pass")
        return events

    def test_one_pair_pass_per_epoch_and_no_diagnostic_encodes(self, blobs3, monkeypatch):
        model = fresh_model(blobs3, "dgae", pretrain_epochs=20)
        events = self.count_encodes_and_sweeps(monkeypatch)
        cfg = self.cfg()
        _, trace, info = train_joint(model, blobs3, cfg)
        assert info["epochs_run"] == cfg.train_epochs
        assert info["self_supervision"].added_keys.size > 0
        assert all(v is not None for v in trace.column("lambda_fd_baseline"))
        # one encode serves the center init and epoch 0; each step's re-encode
        # serves the next epoch, and the last one the final evaluation
        assert events == ["encode"] + ["pair pass", "encode"] * cfg.train_epochs
        # the diagnostics read that encode and cannot make one of their own
        assert not {"encode", "normalize_adjacency", "student_t_assign"} & set(
            vars(gaeclust.diagnostics))

    def test_dgae_takes_hard_labels_once_per_epoch(self, blobs3, monkeypatch):
        model = fresh_model(blobs3, "dgae", pretrain_epochs=20)
        taken = []
        real_labels = gaeclust.clustering.SoftAssignment.labels
        monkeypatch.setattr(gaeclust.clustering.SoftAssignment, "labels",
                            lambda p: taken.append(1) or real_labels(p))
        _, trace, _ = train_joint(model, blobs3, self.cfg())
        # Q of the step and lambda_fr's pseudo side reuse the epoch's labels;
        # the final evaluation takes its own
        assert len(taken) == len(trace.rows) + 1

    def test_reused_diagnostics_equal_standalone_calls(self, blobs3, monkeypatch):
        model = fresh_model(blobs3, "dgae", pretrain_epochs=20)
        calls = []
        real_fr, real_fd = gaeclust.training.lambda_fr, gaeclust.training.lambda_fd

        def fresh(graph):
            # a standalone encode of the model's weights, and dgae's P of it
            caches = eval_caches(model, graph)
            return caches, student_t_assign(caches["pairs"].z, model.centers)

        def fr(graph, pred, caches, omega, **shared):
            # shared: the epoch's Student-t P and the step's KL gradient
            reused = real_fr(graph, pred, caches, omega, **shared)
            # the baseline is an unrestricted lambda_fr of its own
            standalone, p = fresh(graph)
            calls.append(("lambda_fr", omega.size < graph.n_nodes, reused,
                          real_fr(graph, pred, standalone, omega, assignment=p),
                          real_fr(graph, pred, standalone, assignment=p)[0]))
            return reused

        def fd(graph, a_cs, a_sup, caches):
            reused = real_fd(graph, a_cs, a_sup, caches)
            # lambda_fd runs before the step too; its baseline is a lambda_fd
            # toward the original adjacency
            standalone, _ = fresh(graph)
            calls.append(("lambda_fd", a_cs.added_keys.size > 0, reused,
                          real_fd(graph, a_cs, a_sup, standalone),
                          real_fd(graph, passthrough_graph(graph.adjacency), a_sup,
                                  standalone)[0]))
            return reused
        monkeypatch.setattr(gaeclust.training, "lambda_fr", fr)
        monkeypatch.setattr(gaeclust.training, "lambda_fd", fd)
        remainder_inputs = []
        real_lap = gaeclust.training.laplacian_quadratic
        monkeypatch.setattr(gaeclust.training, "laplacian_quadratic",
                            lambda z, a: remainder_inputs.append((z, a)) or real_lap(z, a))
        _, trace, _ = train_joint(model, blobs3, self.cfg())
        names = [name for name, _, _, _, _ in calls]
        # one call of each per row, each returning the value and its baseline
        assert names.count("lambda_fr") == names.count("lambda_fd") == len(trace.rows)
        # rows restricted to Omega and rows on a rewired graph occur, where
        # value and baseline are two cosines
        splits = {(name, split) for name, split, _, _, _ in calls}
        assert {("lambda_fr", True), ("lambda_fd", True)} <= splits
        assert any(reused[0] != reused[1] for _, split, reused, _, _ in calls if split)
        # the shared encode, P, KL gradient and pair pass move no bit
        for name, _, reused, standalone, baseline in calls:
            assert reused == standalone, name
            assert reused[1] == baseline, name
        got = trace.column("l_R_self")
        assert len(remainder_inputs) == len(got)
        for (z, a), value in zip(remainder_inputs, got):
            assert value == regularizer_R(z, a)

    def test_dgae_builds_one_student_t_kernel_per_epoch(self, blobs3, monkeypatch):
        model = fresh_model(blobs3, "dgae", pretrain_epochs=20)
        kernels, reads = [], []
        real_assign = gaeclust.training.student_t_assign
        real_loss = gaeclust.models.dgae_clus_loss

        def assign(z, centers):
            p = real_assign(z, centers)
            kernels.append(p.kernel)
            return p

        def loss(p, *args, **kwargs):
            reads.append((len(kernels), p.kernel))
            return real_loss(p, *args, **kwargs)
        monkeypatch.setattr(gaeclust.training, "student_t_assign", assign)
        for module in (gaeclust.training, gaeclust.diagnostics):
            monkeypatch.setattr(module, "dgae_clus_loss", loss)
        cfg = self.cfg()
        _, trace, _ = train_joint(model, blobs3, cfg)
        # one assignment per epoch and one for the final evaluation; the
        # step's KL term and lambda_FR's gradients read the epoch's kernel
        assert len(kernels) == cfg.train_epochs + 1 == len(trace.rows) + 1
        assert {epoch for epoch, _ in reads} == set(range(1, cfg.train_epochs + 1))
        assert all(kernel is kernels[epoch - 1] for epoch, kernel in reads)
        # the step, the supervised side and the unrestricted pseudo side
        assert len(reads) == 3 * cfg.train_epochs

    @pytest.mark.parametrize("arch", ["gae", "dgae"])
    def test_pass_free_terms_run_before_the_first_read(self, blobs3, monkeypatch, arch):
        model = fresh_model(blobs3, arch, pretrain_epochs=20)
        events = []
        for name in ("model_assignment", "laplacian_quadratic", "centroid_kmeans_loss",
                     "lambda_fr", "build_supervised_target", "lambda_fd", "dgae_clus_loss"):
            count_calls(monkeypatch, events, gaeclust.training, name, name)
        count_calls(monkeypatch, events, gaeclust.pairs, "edge_logits", "edge_logits")
        count_calls(monkeypatch, events, gaeclust.pairs.PairPass, "sums", "sums")
        cfg = self.cfg() if arch == "dgae" else self.gae_cfg()
        train_joint(model, blobs3, cfg)
        epochs = " ".join(events).split("model_assignment")[1:cfg.train_epochs + 1]
        assert len(epochs) == cfg.train_epochs
        before = {"laplacian_quadratic", "centroid_kmeans_loss", "lambda_fr",
                  "build_supervised_target", "lambda_fd"}
        if arch == "dgae":
            before |= {"dgae_clus_loss"}
        for epoch in epochs:
            first_read = epoch.split().index("sums")
            assert set(epoch.split()[:first_read]) == before, epoch
            assert not before & set(epoch.split()[first_read:]), epoch

    def test_restricted_rewired_diagnostics_row_backprops_seven_times(self, blobs3,
                                                                     monkeypatch):
        model = fresh_model(blobs3, "dgae", pretrain_epochs=20)
        events = []
        for module in (gaeclust.training, gaeclust.diagnostics, gaeclust.models):
            count_calls(monkeypatch, events, module, "backprop_theta", "backprop")
        _, trace, _ = train_joint(model, blobs3, self.cfg(epochs=1))
        row = trace.rows[0]
        assert 0 < row["omega_size"] < blobs3.n_nodes
        assert row["links_added_true"] + row["links_added_false"] > 0
        # lambda_fr: supervised, pseudo, pseudo on Omega; lambda_fd:
        # supervised, rewired, original; then the step
        assert events == ["backprop"] * 7

    def test_full_omega_row_is_its_own_lambda_fr_baseline(self, blobs3, monkeypatch):
        model = fresh_model(blobs3, "dgae", pretrain_epochs=20)
        events = []
        for module in (gaeclust.training, gaeclust.diagnostics, gaeclust.models):
            count_calls(monkeypatch, events, module, "backprop_theta", "backprop")
        _, trace, _ = train_joint(model, blobs3, self.cfg(alpha1=0.0, epochs=1))  # alpha2 0 too
        row = trace.rows[0]
        assert row["omega_size"] == blobs3.n_nodes
        assert row["links_added_true"] + row["links_added_false"] > 0
        # an Omega of every node is lambda_fr's own baseline: supervised and
        # pseudo; lambda_fd: supervised, rewired, original; then the step
        assert events == ["backprop"] * 6
        assert row["lambda_fr_baseline"] == row["lambda_fr"]

    def test_gae_epoch_encodes_and_sweeps_once(self, blobs3, monkeypatch):
        model = fresh_model(blobs3, "gae", pretrain_epochs=20)
        events = self.count_encodes_and_sweeps(monkeypatch)
        cfg = self.gae_cfg()
        _, trace, info = train_joint(model, blobs3, cfg)
        assert info["epochs_run"] == cfg.train_epochs
        assert all(v is not None for v in trace.column("lambda_fd"))
        # the gae step trains on the epoch's eval-mode encode and its pass
        assert events == ["encode"] + ["pair pass", "encode"] * cfg.train_epochs

    def test_gae_reuse_matches_a_forced_re_encode_bitwise(self, blobs3, monkeypatch):
        cfg = self.gae_cfg()
        reused_model, reused_trace, _ = train_joint(
            fresh_model(blobs3, "gae", pretrain_epochs=20), blobs3, cfg)
        real_step = gaeclust.training.reconstruction_step
        monkeypatch.setattr(gaeclust.training, "reconstruction_step",
                            lambda *args: real_step(*args[:4]))
        forced_model, forced_trace, _ = train_joint(
            fresh_model(blobs3, "gae", pretrain_epochs=20), blobs3, cfg)
        for col in TRACE_COLUMNS:
            if col != "wall_time":
                assert reused_trace.column(col) == forced_trace.column(col), col
        assert reused_trace.column("l_total")[0] is not None
        for name, w in reused_model.weights.items():
            assert np.array_equal(w, forced_model.weights[name]), name

    def test_vgae_steps_on_a_fresh_sample(self, blobs3, monkeypatch):
        model = fresh_model(blobs3, "vgae", pretrain_epochs=20)
        events = self.count_encodes_and_sweeps(monkeypatch)
        cfg = self.gae_cfg()
        train_joint(model, blobs3, cfg)
        # the eval-mode encode feeds the diagnostics, a training-mode one the step
        epoch = ["pair pass", "encode", "pair pass", "encode"]
        assert events == ["encode"] + epoch * cfg.train_epochs
        a_prop = normalize_adjacency(blobs3, "propagation")
        eval_mode = encode(model, a_prop, blobs3.x, training=False)[1]
        with pytest.raises(StateError, match="training-mode"):
            reconstruction_step(model, a_prop, blobs3.x, blobs3.adjacency, eval_mode)

    def count_encodes_and_starts(self, monkeypatch) -> list:
        """Record every encode and every PairPass.start, with the sweep forced
        onto the reader and one pool helper in strips of a few rows."""
        monkeypatch.setattr(gaeclust.pairs, "pair_sweep_workers", lambda: 2)
        monkeypatch.setattr(gaeclust.pairs, "_TILE_DOUBLES", 182)
        events = []
        count_calls(monkeypatch, events, gaeclust.training, "encode", "encode")
        count_calls(monkeypatch, events, gaeclust.models, "encode", "encode")
        count_calls(monkeypatch, events, gaeclust.pairs.PairPass, "start", "start")
        return events

    @pytest.mark.parametrize("arch", ["gae", "dgae"])
    def test_gae_and_dgae_start_each_epochs_pass(self, blobs3, monkeypatch, arch):
        model = fresh_model(blobs3, arch, pretrain_epochs=20)
        events = self.count_encodes_and_starts(monkeypatch)
        cfg = self.gae_cfg()
        cfg.diag_stride = 3
        _, _, info = train_joint(model, blobs3, cfg)
        assert info["epochs_run"] == cfg.train_epochs
        # each step reads its epoch's pass; the final encode is only evaluated
        assert events == ["encode", "start"] * cfg.train_epochs + ["encode"]

    @pytest.mark.parametrize("arch", ["gae", "dgae"])
    def test_lambda_fd_runs_beside_lambda_fr_before_the_first_read(self, blobs3, monkeypatch,
                                                                   arch):
        model = fresh_model(blobs3, arch, pretrain_epochs=20)
        events = self.count_encodes_and_starts(monkeypatch)
        count_calls(monkeypatch, events, gaeclust.pairs.PairPass, "sums", "sums")
        for name in ("lambda_fr", "regularizer_R"):
            count_calls(monkeypatch, events, gaeclust.training, name, name)
        real_fd = gaeclust.training.lambda_fd

        def fd(*args):
            events.append("lambda_fd")
            out = real_fd(*args)
            events.append("lambda_fd returned")
            return out
        monkeypatch.setattr(gaeclust.training, "lambda_fd", fd)
        cfg = self.cfg() if arch == "dgae" else self.gae_cfg()
        _, trace, _ = train_joint(model, blobs3, cfg)
        assert len(trace.rows) == cfg.train_epochs
        assert all(v is not None for v in trace.column("lambda_fd"))
        # lambda_FD follows lambda_FR on the epoch's encode and reads no pass;
        # l_R_self's read is the epoch's first, then the step reads the pass
        # twice, and its one encode starts the next epoch's pass
        epoch = (["lambda_fr", "lambda_fd", "lambda_fd returned", "regularizer_R"]
                 + ["sums"] * 3 + ["encode"])
        assert events == (["encode", "start"] + (epoch + ["start"]) * (cfg.train_epochs - 1)
                          + epoch)

    def test_vgae_starts_a_pass_only_before_a_diagnostics_row(self, blobs3, monkeypatch):
        model = fresh_model(blobs3, "vgae", pretrain_epochs=20)
        events = self.count_encodes_and_starts(monkeypatch)
        cfg = self.gae_cfg()
        cfg.diag_stride = 2
        _, trace, _ = train_joint(model, blobs3, cfg)
        assert [row["l_R_self"] is not None for row in trace.rows] == [True, False] * 2
        # each step encodes a training sample and starts its pass; the
        # eval-mode encode follows it, and its pass is started only before
        # a diagnostics row
        step = ["encode", "start", "encode"]
        assert events == ["encode", "start"] + step + step + ["start"] + step + step

    def test_nothing_is_started_after_convergence(self, blobs2, monkeypatch):
        model = fresh_model(blobs2, "dgae", pretrain_epochs=30)
        events = self.count_encodes_and_starts(monkeypatch)
        cfg = TrainConfig(train_epochs=30, rethink=True, m1=5, m2=5)
        _, _, info = train_joint(model, blobs2, cfg)
        assert info["stop_reason"] == "omega_converged" and info["epochs_run"] < 30
        assert events == ["encode", "start"] * info["epochs_run"] + ["encode"]

    @pytest.mark.parametrize("arch", ["gae", "vgae", "dgae"])
    def test_started_passes_change_no_bit(self, blobs3, tmp_path, monkeypatch, arch):
        monkeypatch.setattr(gaeclust.pairs, "_TILE_DOUBLES", 182)

        def run(workers):
            monkeypatch.setattr(gaeclust.pairs, "pair_sweep_workers", lambda: workers)
            model = fresh_model(blobs3, arch, pretrain_epochs=10)
            cfg = TrainConfig(train_epochs=4, rethink=True, m1=2, m2=2, alpha1=0.9999,
                              convergence_fraction=1.0, diag_stride=2)
            model, trace, _ = train_joint(model, blobs3, cfg)
            save_checkpoint(model, tmp_path / f"workers{workers}.json")
            return (tmp_path / f"workers{workers}.json").read_bytes(), trace

        serial, serial_trace = run(1)
        for workers in (2, 3):
            swept, swept_trace = run(workers)
            assert swept == serial, workers
            for col in TRACE_COLUMNS:
                if col != "wall_time":
                    assert swept_trace.column(col) == serial_trace.column(col), (workers, col)


class TestEpochWorkingSet:
    """An epoch holds no per-node x per-cluster x per-dimension tensor: on a
    graph whose N K d doubles are far above the row-block budget, the
    Gaussian P of gae's Xi and dgae's KL gradients (the centers' included,
    over an Omega of most nodes) build z_i - mu_k one row block at a time."""

    @pytest.mark.parametrize("arch, alpha1", [("gae", 0.9999), ("dgae", 0.05)])
    def test_an_epoch_peaks_below_half_an_n_k_d_tensor(self, monkeypatch, arch, alpha1):
        n, k = 1600, 50
        graph = planted_partition(n, k, 0.3, 0.002, seed=7, feature_dim=8, feature_scale=3.0)
        tensor = n * k * EMBED_DIM * 8
        assert tensor > 20 * gaeclust.pairs._BLOCK_DOUBLES * 8
        model = fresh_model(graph, arch, pretrain_epochs=5)
        calls, peaks = [], []
        real = gaeclust.training.model_assignment

        def assignment(*args, **kwargs):
            # called once at the start of each epoch and once after the last:
            # the first epoch warms up, the second is traced
            calls.append(1)
            if len(calls) == 2:
                tracemalloc.reset_peak()
            elif len(calls) == 3:
                peaks.append(tracemalloc.get_traced_memory()[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(gaeclust.training, "model_assignment", assignment)
        cfg = TrainConfig(train_epochs=2, rethink=True, m1=1, m2=1, alpha1=alpha1,
                          convergence_fraction=1.0, diag_stride=1)
        tracemalloc.start()
        try:
            _, trace, info = train_joint(model, graph, cfg)
        finally:
            tracemalloc.stop()
        assert info["epochs_run"] == 2 and len(peaks) == 1
        # Xi ran on both epochs and kept most nodes, short of all of them
        assert [size for _, size in info["omega_sizes"]] == trace.column("omega_size")
        assert all(n // 2 < size < n for size in trace.column("omega_size"))
        assert peaks[0] < tensor / 2
