"""Encoders, losses, gradients, checkpoints."""

import copy
import math
import types
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import gaeclust.clustering
import gaeclust.models
import gaeclust.pairs
import gaeclust.training
from gaeclust import (ConfigError, DataError, NumericsError, ShapeError, StateError, TrainConfig,
                      TrainingError, init_model, pretrain, train_joint)
from gaeclust.clustering import gaussian_soft_assign, student_t_assign
from gaeclust.graphio import normalize_adjacency
from gaeclust.linalg import finite_diff_grad
from gaeclust.models import (EMBED_DIM, HIDDEN_DIM, backprop_theta, dgae_clus_loss, encode,
                             flatten_theta, load_checkpoint, reconstruction_step, save_checkpoint,
                             vgae_kl_prior)
from gaeclust.pairs import PairPass, edge_logits, recon_grad_z, recon_loss, regularizer_R

from conftest import (assert_bits_equal, assert_sweep_matches_reference, grad_close, pair_targets,
                      planted_partition, random_graph, reference_sweep, set_workers, traced_peak)


def onehot(labels, k):
    return np.eye(k)[labels]


def kl_scalar(qm, pm, rows=None):
    """Literal sum_{i,k: q>0} q log(q/p), with the same 1e-12 floor."""
    idx = range(qm.shape[0]) if rows is None else rows
    total = 0.0
    for i in idx:
        for k in range(qm.shape[1]):
            if qm[i, k] > 0:
                total += qm[i, k] * (np.log(qm[i, k]) - np.log(max(pm[i, k], 1e-12)))
    return total


class TestTrainConfig:
    def test_alpha2_defaults_to_half_alpha1(self):
        assert TrainConfig(alpha1=0.5).alpha2 == 0.25

    @pytest.mark.parametrize("kwargs", [
        {"alpha1": 1.5},
        {"alpha1": -0.1},
        {"alpha2": -0.2},
        {"m1": 0},
        {"m2": 0},
        {"gamma": -1.0},
        {"convergence_fraction": 0.0},
        {"convergence_fraction": 1.2},
        {"diag_stride": 0},
        {"ablation": "bogus"},
        {"ablation": "fr_correction_delay", "rethink": True},
        {"ablation": "fr_correction_delay:x", "rethink": True},
        {"ablation": "fr_correction_delay:-1", "rethink": True},
        # the delay is digits only, so one delay has one run tag
        {"ablation": "fr_correction_delay: 3", "rethink": True},
        {"ablation": "fr_correction_delay:+3", "rethink": True},
        {"ablation": "fr_correction_delay:1_0", "rethink": True},
        {"ablation": "fr_correction_delay:3 ", "rethink": True},
        {"ablation": "fr_correction_delay:3:4", "rethink": True},
        # no leading zeros: :03 and :3 would run one schedule under two run tags
        {"ablation": "fr_correction_delay:03", "rethink": True},
        {"ablation": "fr_correction_delay:00", "rethink": True},
        {"ablation": "no_xi:3", "rethink": True},
        {"ablation": "no_xi"},  # rethink off
        # each value must have its field's type; a bool is no number
        {"m1": 2.5},
        {"m2": None},
        {"pretrain_epochs": "3"},
        {"train_epochs": 4.0},
        {"diag_stride": True},
        {"alpha1": "x"},
        {"alpha2": "0.1"},
        {"gamma": False},
        {"lr": None},
        {"convergence_fraction": [1.0]},
        {"rethink": "no"},
        {"rethink": 1},
        {"ablation": None},
        # run lengths and rates are checked before any work starts
        {"train_epochs": -1},
        {"pretrain_epochs": -1},
        {"lr": 0.0},
        {"lr": -0.01},
        {"lr": float("inf")},
        {"lr": float("nan")},
        {"gamma": float("nan")},
        {"gamma": float("inf")},
        {"alpha2": float("nan")},
        {"alpha2": float("inf")},
    ])
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ConfigError):
            TrainConfig(**kwargs)

    def test_numpy_scalars_are_held_as_python_scalars(self):
        cfg = TrainConfig(m1=np.int64(5), pretrain_epochs=np.int64(3), lr=np.float32(0.5),
                          rethink=np.bool_(True), ablation=np.str_("no_xi"))
        assert [type(v) for v in (cfg.m1, cfg.pretrain_epochs, cfg.lr, cfg.rethink,
                                  cfg.ablation)] == [int, int, float, bool, str]
        assert cfg == TrainConfig(m1=5, pretrain_epochs=3, lr=0.5, rethink=True, ablation="no_xi")

    @pytest.mark.parametrize("ablation, parsed", [
        ("none", ("none", 0)),
        ("no_xi", ("no_xi", 0)),
        ("fd_protection_single_step", ("fd_protection_single_step", 0)),
        ("fr_correction_delay:30", ("fr_correction_delay", 30)),
        ("fr_correction_delay:0", ("fr_correction_delay", 0)),
    ], ids=["none", "no_xi", "fd_protection_single_step", "delay-30", "delay-0"])
    def test_parse_ablation(self, ablation, parsed):
        assert TrainConfig(rethink=True, ablation=ablation).parse_ablation() == parsed


class TestInitAndEncode:
    def test_init_deterministic(self):
        a = init_model("gae", 5, seed=3)
        b = init_model("gae", 5, seed=3)
        for k in a.weights:
            assert np.array_equal(a.weights[k], b.weights[k])

    def test_weight_shapes(self):
        m = init_model("vgae", 7, seed=0)
        assert m.weights["w1"].shape == (7, HIDDEN_DIM)
        assert m.weights["w2_mu"].shape == (HIDDEN_DIM, EMBED_DIM)
        assert m.weights["w2_logstd"].shape == (HIDDEN_DIM, EMBED_DIM)
        g = init_model("dgae", 7, seed=0)
        assert set(g.weights) == {"w1", "w2"}
        assert g.centers is None

    def test_glorot_bounds(self):
        m = init_model("gae", 100, seed=1)
        limit = np.sqrt(6.0 / (100 + HIDDEN_DIM))
        assert np.all(np.abs(m.weights["w1"]) <= limit)

    def test_unknown_arch(self):
        with pytest.raises(ConfigError):
            init_model("sage", 4, seed=0)

    def test_encode_matches_dense_oracle(self, blobs3):
        model = init_model("gae", blobs3.x.shape[1], seed=2)
        a_prop = normalize_adjacency(blobs3, "propagation")
        z, _ = encode(model, a_prop, blobs3.x)
        a = a_prop.toarray()
        h = np.maximum(a @ blobs3.x @ model.weights["w1"], 0.0)
        expected = a @ h @ model.weights["w2"]
        assert np.allclose(z, expected, atol=1e-12)

    def test_vgae_eval_returns_mu(self, blobs3):
        model = init_model("vgae", blobs3.x.shape[1], seed=2)
        a_prop = normalize_adjacency(blobs3, "propagation")
        z, caches = encode(model, a_prop, blobs3.x, training=False)
        assert np.array_equal(z, caches["mu"])

    def test_vgae_training_reparameterization(self, blobs3):
        model = init_model("vgae", blobs3.x.shape[1], seed=2)
        a_prop = normalize_adjacency(blobs3, "propagation")
        saved = copy.deepcopy(model.rng.bit_generator.state)
        z, caches = encode(model, a_prop, blobs3.x, training=True)
        replay = np.random.default_rng(0)
        replay.bit_generator.state = saved
        eps = replay.standard_normal(caches["mu"].shape)
        assert np.array_equal(caches["eps"], eps)
        assert np.allclose(z, caches["mu"] + np.exp(caches["logstd"]) * eps, atol=1e-15)

    def test_feature_dim_mismatch(self, blobs3):
        model = init_model("gae", 3, seed=0)
        with pytest.raises(ShapeError):
            encode(model, normalize_adjacency(blobs3, "propagation"), blobs3.x)

    def test_nonfinite_weights_detected(self, blobs3):
        model = init_model("gae", blobs3.x.shape[1], seed=0)
        model.weights["w2"][0, 0] = np.inf
        with pytest.raises(NumericsError):
            encode(model, normalize_adjacency(blobs3, "propagation"), blobs3.x)

    @pytest.mark.parametrize("arch, training", [("gae", False), ("vgae", True)])
    def test_caches_backprop_at_the_weights_they_were_encoded_with(self, blobs3, arch, training):
        model = init_model(arch, blobs3.x.shape[1], seed=0)
        a_prop = normalize_adjacency(blobs3, "propagation")
        pre_step = copy.deepcopy(model)  # the weights, and the rng that draws vgae's sample
        z, caches = encode(model, a_prop, blobs3.x, training=training)
        reconstruction_step(model, a_prop, blobs3.x, blobs3.adjacency, caches)
        assert not np.array_equal(model.weights["w1"], pre_step.weights["w1"])
        fresh_z, fresh = encode(pre_step, a_prop, blobs3.x, training=training)
        assert np.array_equal(fresh_z, z)
        grad_z = recon_grad_z(z, blobs3.adjacency, "pos_weighted")
        after, want = backprop_theta(caches, grad_z), backprop_theta(fresh, grad_z)
        assert after.keys() == want.keys() == model.weights.keys()
        assert all(np.array_equal(after[k], want[k]) for k in want)


def tiled_reference(z, a, weighting, tile):
    """The row-tiled recon_loss / recon_grad_z formulas the pair pass replaced.

    The plain loss weights its edge logits by the stored values; the
    earlier code summed them unweighted, which is the same for the binary
    targets it was written for.
    """
    n = z.shape[0]
    a = a.tocsr()
    if weighting == "pos_weighted":
        two_e = a.nnz
        w = (n * n - two_e) / two_e
        norm = n * n / (2.0 * (n * n - two_e))
    total, grad = 0.0, np.zeros_like(z)
    for start in range(0, n, tile):
        rows = slice(start, min(start + tile, n))
        logits = z[rows] @ z.T
        arow = a[rows].toarray()
        sig = 1.0 / (1.0 + np.exp(-logits))
        if weighting == "plain":
            total += float(np.logaddexp(0.0, logits).sum())
            g = sig - arow
        else:
            total += float((w * arow * np.logaddexp(0.0, -logits)
                            + (1.0 - arow) * np.logaddexp(0.0, logits)).sum())
            g = norm / (n * n) * (sig * (1.0 + (w - 1.0) * arow) - w * arow)
        grad[rows] += g @ z
        grad += g.T @ z[rows]
    if weighting == "plain":
        coo = a.tocoo()
        loss = total - float(coo.data @ np.einsum("ed,ed->e", z[coo.row], z[coo.col]))
    else:
        loss = norm * total / (n * n)
    return loss, grad


class TestPairPass:
    @pytest.mark.parametrize("weighting", ["plain", "pos_weighted"])
    @pytest.mark.parametrize("target", ["symmetric", "asymmetric", "weighted",
                                        "asymmetric_weighted"])
    # None: one strip; 1: every strip one row; 116: strips of 3-8 rows;
    # 182: strips of 4, 5, 6, 8, 13 and a last one of one row
    @pytest.mark.parametrize("tile_doubles", [None, 3 * 37 + 5, 1, 182])
    def test_matches_tiled_reference(self, monkeypatch, weighting, target, tile_doubles):
        rng = np.random.default_rng(14)
        n = 37
        z = rng.standard_normal((n, 5)) * 1.5  # logits of both signs, |l| up to ~30
        a = pair_targets(rng, n)[target]
        if tile_doubles is not None:
            monkeypatch.setattr(gaeclust.pairs, "_TILE_DOUBLES", tile_doubles)
        want_loss, want_grad = tiled_reference(z, a, weighting, tile=n)
        for workers in (1, 2, 3):
            set_workers(monkeypatch, workers)
            assert recon_loss(z, a, weighting) == pytest.approx(want_loss, rel=1e-12)
            got = recon_grad_z(z, a, weighting)
            assert np.max(np.abs(got - want_grad)) <= 1e-12 * np.max(np.abs(want_grad))
            # a started pass reads the same bits; its gradient read joins the sweep
            for pairs in (PairPass(z), PairPass(z).start()):
                assert np.array_equal(recon_grad_z(pairs, a, weighting), got)
                assert recon_loss(pairs, a, weighting) == recon_loss(z, a, weighting)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("tile_doubles", [None, 1])
    def test_tiny_graphs_match_tiled_reference(self, monkeypatch, n, tile_doubles):
        rng = np.random.default_rng(17)
        z = rng.standard_normal((n, 3)) * 1.5
        if tile_doubles is not None:
            monkeypatch.setattr(gaeclust.pairs, "_TILE_DOUBLES", tile_doubles)
        # one node has no pair but itself, so only the plain loss is defined
        cases = ([(sp.csr_matrix(np.array([[0.5]])), "plain")] if n == 1 else
                 [(sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]])), w)
                  for w in ("plain", "pos_weighted")])
        for a, weighting in cases:
            want_loss, want_grad = tiled_reference(z, a, weighting, tile=n)
            assert recon_loss(z, a, weighting) == pytest.approx(want_loss, rel=1e-12)
            got = recon_grad_z(z, a, weighting)
            assert np.max(np.abs(got - want_grad)) <= 1e-12 * np.max(np.abs(want_grad))

    def test_regularizer_matches_tiled_softplus_sum(self):
        rng = np.random.default_rng(15)
        z = rng.standard_normal((29, 4)) * 2.0
        a = pair_targets(rng, 29)["asymmetric_weighted"]
        softplus = sum(float(np.logaddexp(0.0, z[i] @ z.T).sum()) for i in range(29))
        sq = np.einsum("nd,nd->n", z, z)
        rs = np.asarray(a.sum(axis=1)).ravel()
        cs = np.asarray(a.sum(axis=0)).ravel()
        want = softplus - 0.5 * (rs @ sq + cs @ sq)
        assert regularizer_R(z, a) == pytest.approx(want, rel=1e-12)
        assert regularizer_R(PairPass(z), a) == regularizer_R(z, a)

    def test_one_sweep_serves_every_target(self, monkeypatch):
        rng = np.random.default_rng(16)
        z = rng.standard_normal((20, 3))
        sweeps = []
        real = PairPass._begin
        monkeypatch.setattr(PairPass, "_begin", lambda self: sweeps.append(1) or real(self))
        pairs = PairPass(z)
        assert not sweeps  # nothing is computed until a loss asks for it
        for a in pair_targets(rng, 20).values():
            recon_loss(pairs, a, "pos_weighted")
            recon_grad_z(pairs, a, "plain")
            regularizer_R(pairs, a)
        assert len(sweeps) == 1

    def test_bad_target_raises_before_the_sweep(self, monkeypatch):
        monkeypatch.setattr(PairPass, "_begin", None)  # would fail if called
        pairs = PairPass(np.zeros((3, 2)))
        with pytest.raises(ShapeError):
            recon_grad_z(pairs, sp.csr_matrix((4, 4)))
        with pytest.raises(ShapeError):
            regularizer_R(pairs, sp.csr_matrix((4, 4)))
        with pytest.raises(DataError):
            recon_loss(pairs, sp.csr_matrix((3, 3)), "pos_weighted")
        with pytest.raises(DataError):
            recon_grad_z(pairs, sp.csr_matrix(np.eye(3)), "focal")


class ProductSpy:
    """Stands in for numpy inside gaeclust.pairs and records every
    np.multiply.reduce result with the number of rows it multiplied."""

    def __init__(self):
        self.products = []
        self.multiply = types.SimpleNamespace(reduce=self._reduce)

    def _reduce(self, a, axis):
        out = np.multiply.reduce(a, axis=axis)
        self.products.append((a.shape[axis], out))
        return out

    def __getattr__(self, name):
        return getattr(np, name)


class OuterProducts:
    """Stands in for numpy inside gaeclust.pairs with a matmul that forms each
    d = 1 logit by one multiply, so -0.0 * 1.5 is -0.0; OpenBLAS sums every
    product onto +0.0 and so never returns a -0.0 logit."""

    @staticmethod
    def matmul(a, b, out=None):
        assert a.shape[1] == b.shape[0] == 1
        return np.multiply(a, b, out=out)

    def __getattr__(self, name):
        return getattr(np, name)


def assert_strip_block_matches_reference(z, matmul=np.matmul):
    """One strip over all of z leaves sigmoid(l) - 1/2 in the last float64
    block of this thread's strip buffers; compare it bitwise with the one
    np.copysign(e, logits) gives."""
    n = z.shape[0]
    gaeclust.pairs._strip_sums(z, 0, n, z.sum(axis=0))
    blocks = gaeclust.pairs._strip_buffers.blocks
    got = [b for b in blocks if b.dtype == np.float64][-1][:n * n].reshape(n, n)
    logits = matmul(z, z.T)
    want = np.copysign(1.0 / (1.0 + np.exp(-np.abs(logits))) - 0.5, logits)
    assert_bits_equal(got, want)
    return got


class TestStripArithmetic:
    @pytest.mark.parametrize("n, d, scale, tile_doubles", [
        (37, 5, 1.5, None), (37, 5, 1.5, 3 * 37 + 5), (37, 5, 1.5, 1), (37, 5, 1.5, 182),
        # default tile: strips of 250, 333 and 417 rows
        (1000, 16, 0.5, None), (1000, 16, 3.0, None),
    ])
    def test_matches_reference_sweep(self, monkeypatch, n, d, scale, tile_doubles):
        if tile_doubles is not None:
            monkeypatch.setattr(gaeclust.pairs, "_TILE_DOUBLES", tile_doubles)
        if n == 1000:
            assert [i1 - i0 for i0, i1 in gaeclust.pairs._strips(n)] == [250, 333, 417]
        z = np.random.default_rng(n + d).standard_normal((n, d)) * scale
        sums = []
        for workers in (1, 2, 3):
            set_workers(monkeypatch, workers)
            sums.append(assert_sweep_matches_reference(z))
        # strips fold in strip order, so the softplus sum is the same bits at any count
        assert sums[0] == sums[1] == sums[2]

    @pytest.mark.parametrize("tile_doubles", [None, 182])
    def test_zero_embedding(self, monkeypatch, tile_doubles):
        if tile_doubles is not None:
            monkeypatch.setattr(gaeclust.pairs, "_TILE_DOUBLES", tile_doubles)
        n = 1000
        strips = list(gaeclust.pairs._strips(n))
        for workers in (1, 3):
            set_workers(monkeypatch, workers)
            spy = ProductSpy()
            monkeypatch.setattr(gaeclust.pairs, "np", spy)
            s, grad = PairPass(np.zeros((n, 3))).sums()
            assert s == pytest.approx(n * n * math.log(2.0), rel=1e-12)
            assert not grad.any()
            # every factor is sigmoid(0) = 1/2, so a column of r rows multiplies to
            # exactly 2^-r; the helpers and the reader record their products as
            # they finish, each strip once
            assert sorted(rows for rows, _ in spy.products) == sorted(i1 - i0 for i0, i1 in strips)
            for rows, product in spy.products:
                assert np.all(product == 2.0 ** -rows)

    @pytest.mark.parametrize("big", [720.0, 800.0])
    def test_saturated_logits_match_logaddexp(self, big):
        # exp(-720) is subnormal and exp(-800) underflows to 0
        rng = np.random.default_rng(18)
        a = math.sqrt(big)
        z = np.zeros((40, 3))
        z[:10, 0] = a
        z[10:20, 0] = -a
        z[20:, 1:] = rng.standard_normal((20, 2))
        logits = z @ z.T
        assert np.abs(logits).max() == pytest.approx(big)
        brute = float(np.logaddexp(0.0, logits).sum())
        assert assert_sweep_matches_reference(z) == pytest.approx(brute, rel=1e-12)

    def test_overflowing_logits_stay_non_finite(self, blobs2):
        a = blobs2.adjacency
        z = np.full((blobs2.n_nodes, 2), 1e160)
        z[::2] *= -1.0
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(recon_loss(z, a, "pos_weighted"))
            assert not np.isfinite(recon_loss(z, a, "plain"))
        model = init_model("gae", blobs2.x.shape[1], seed=0)
        model.weights = {k: w * 1e80 for k, w in model.weights.items()}
        a_prop = normalize_adjacency(blobs2, "propagation")
        before = copy.deepcopy(model.weights)
        with np.errstate(over="ignore", invalid="ignore"):
            z, _ = encode(model, a_prop, blobs2.x)
            assert np.all(np.isfinite(z)) and not np.all(np.isfinite(z @ z.T))
            with pytest.raises(TrainingError):
                reconstruction_step(model, a_prop, blobs2.x, a)
        for k in before:
            assert np.array_equal(model.weights[k], before[k])

    @pytest.mark.parametrize("tile_doubles", [None, 1, 60])
    def test_negative_zero_logits(self, monkeypatch, tile_doubles):
        if tile_doubles is not None:
            monkeypatch.setattr(gaeclust.pairs, "_TILE_DOUBLES", tile_doubles)
        z = np.array([-0.0, 0.0, 1.5, -2.0, 0.25, -0.0, 0.0, -1.0] * 5)[:, None]
        outer = OuterProducts.matmul
        logits = outer(z, z.T)
        assert np.any((logits == 0.0) & np.signbit(logits))
        monkeypatch.setattr(gaeclust.pairs, "np", OuterProducts())
        want_s, want_g = reference_sweep(z, matmul=outer)
        for workers in (1, 3):
            set_workers(monkeypatch, workers)
            got_s, got_g = PairPass(z).sums()
            assert_bits_equal(got_g, want_g)
            assert got_s == pytest.approx(want_s, rel=1e-12)
        # sigmoid(+-0.0) - 1/2 is +0.0, which takes the sign of its logit
        monkeypatch.setattr(gaeclust.pairs, "_TILE_DOUBLES", z.size ** 2)
        block = assert_strip_block_matches_reference(z, matmul=outer)
        assert np.any((block == 0.0) & np.signbit(block))

    def test_sign_bit_or_equals_copysign(self, monkeypatch):
        # logits of +-0.0, subnormals (1e-320, 5e-324) and beyond +-745, where exp(-|l|) underflows
        z = np.array([1.5, -0.0, 0.0, 1e-160, -1e-160, 28.0, -28.0, 7e-162, -0.5])[:, None]
        outer = OuterProducts.matmul
        i0, i1 = 1, 7
        logits = outer(z[i0:i1], z[i0:].T)
        assert np.any((logits == 0.0) & np.signbit(logits))
        assert np.any((logits != 0.0) & (np.abs(logits) < np.finfo(np.float64).tiny))
        assert logits.max() > 745.0 and logits.min() < -745.0
        tail = z[i0:].sum(axis=0)
        # the strip body with np.copysign(e, -1.0, out=e) for e = -|l|
        r = i1 - i0
        e = logits.copy()
        sign = np.where(np.signbit(e), -1, 1).astype(np.int8)
        np.copysign(e, -1.0, out=e)
        zs = z[i0:i1].sum(axis=0)
        relu, relu_diag = 0.5 * (zs @ tail - e.sum()), 0.5 * (zs @ zs - e[:, :r].sum())
        e = 1.0 / (np.exp(e) + 1.0)
        log_sig = np.log(np.multiply.reduce(e, axis=0))
        want_part = float(2.0 * (relu - log_sig.sum()) - relu_diag + log_sig[:r].sum())
        e -= 0.5
        e *= sign
        want = (np.float64(want_part), e @ z[i0:], e[:, r:].T @ z[i0:i1])
        monkeypatch.setattr(gaeclust.pairs, "np", OuterProducts())
        got = gaeclust.pairs._strip_sums(z, i0, i1, tail)
        for g, w in zip((np.float64(got[0]), *got[1:]), want):
            assert_bits_equal(np.atleast_1d(g), np.atleast_1d(w))

    @pytest.mark.parametrize("tile_doubles", [None, 1, 60])
    def test_infinite_logits(self, monkeypatch, tile_doubles):
        if tile_doubles is not None:
            monkeypatch.setattr(gaeclust.pairs, "_TILE_DOUBLES", tile_doubles)
        z = np.array([1e160, -1e160, 0.5, -1e160, -0.75, 1e160, 2.0] * 6)[:, None]
        with np.errstate(over="ignore", invalid="ignore"):
            logits = z @ z.T
            assert np.isposinf(logits).any() and np.isneginf(logits).any()
            assert not np.isnan(logits).any()
            # the softplus sums are inf - inf on both sides: only the gradient compares
            _, want_g = reference_sweep(z)
            for workers in (1, 3):
                set_workers(monkeypatch, workers)
                got_s, got_g = PairPass(z).sums()
                assert not np.isfinite(got_s)
                assert_bits_equal(got_g, want_g)
            monkeypatch.setattr(gaeclust.pairs, "_TILE_DOUBLES", z.size ** 2)
            assert_strip_block_matches_reference(z)

    def test_strip_rows_stay_within_the_product_bound(self):
        tile = gaeclust.pairs._TILE_DOUBLES
        # a column product of r factors in [1/2, 1] is >= 2^-r, normal while r < 1022
        assert math.isqrt(tile) < 1022
        for n in range(1, 3001):
            strips = list(gaeclust.pairs._strips(n))
            assert strips[0][0] == 0 and strips[-1][1] == n
            assert all(prev[1] == nxt[0] for prev, nxt in zip(strips, strips[1:]))
            assert all(i1 - i0 == 1 or (i1 - i0) ** 2 <= tile for i0, i1 in strips), n


def whole_student_t(z, centers):
    """(P, s) of a Student-t assignment from one (N, K, d) difference tensor."""
    diff = z[:, None, :] - centers[None, :, :]
    s = 1.0 / (1.0 + np.einsum("nkd,nkd->nk", diff, diff))
    return s / s.sum(axis=1, keepdims=True), s


def whole_gaussian(z, centers, labels):
    """Gaussian P from two (N, K, d) tensors: the differences and their
    scaled copy, under the package's floored variances."""
    variances = gaeclust.clustering._variances_for(z, centers, labels)
    diff = z[:, None, :] - centers[None, :, :]
    log_kernel = -0.5 * np.einsum("nkd,nkd->nk", diff * (1.0 / variances)[None, :, :], diff)
    log_kernel -= log_kernel.max(axis=1, keepdims=True)
    p = np.exp(log_kernel)
    return p / p.sum(axis=1, keepdims=True)


def whole_clus_loss(z, centers, labels, rows, grad_centers):
    """dgae's KL(Q||P) and its gradients from one stored (N, K, d) tensor
    and its copied rows."""
    p, s = whole_student_t(z, centers)
    diff = z[:, None, :] - centers[None, :, :]
    idx = np.arange(z.shape[0]) if rows is None else rows
    if rows is not None:
        diff, s, p = diff[idx], s[idx], p[idx]
    hit = (np.arange(idx.size), labels[idx])
    q = np.zeros_like(p)
    q[hit] = 1.0
    terms = np.zeros_like(p)
    terms[hit] = -np.log(np.maximum(p[hit], 1e-12))
    coeff = 2.0 * s * (q - p)
    grad_z = np.zeros_like(z)
    grad_z[idx] = np.einsum("nk,nkd->nd", coeff, diff)
    return (float(terms.sum()), grad_z,
            -np.einsum("nk,nkd->kd", coeff, diff) if grad_centers else None)


def whole_edge_logits(z, a):
    """Edge logits from both (E, d) endpoint gathers at once."""
    rows = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
    return np.einsum("ed,ed->e", z[rows], z[a.indices])


class TestWorkingSet:
    def test_a_student_t_assignment_holds_no_n_k_d_array(self, monkeypatch):
        tile = 4096
        monkeypatch.setattr(gaeclust.pairs, "_BLOCK_DOUBLES", tile)
        rng = np.random.default_rng(0)
        n, k, d = 2000, 10, 32
        z, centers = rng.standard_normal((n, d)), rng.standard_normal((k, d))
        p = student_t_assign(z, centers)
        assert p.kernel[0] is z
        assert all(a.size < n * k * d for a in (p.matrix, *p.kernel))
        # the calls hold N x K and N x d arrays and one block of z_i - mu_k,
        # far from an N x K x d tensor
        tensor = n * k * d * 8
        assert traced_peak(lambda: student_t_assign(z, centers)) < tensor / 4
        labels = p.labels()
        assert traced_peak(lambda: dgae_clus_loss(student_t_assign(z, centers), labels,
                                                  grad_centers=False)) < tensor / 2
        # the centers' gradient sums over every row, one block at a time
        assert traced_peak(lambda: dgae_clus_loss(p, labels, grad_centers=True)) < tensor / 4

    def test_a_gaussian_assignment_holds_no_n_k_d_array(self, monkeypatch):
        tile = 4096
        monkeypatch.setattr(gaeclust.pairs, "_BLOCK_DOUBLES", tile)
        rng = np.random.default_rng(3)
        n, k, d = 2000, 10, 32
        z, centers = rng.standard_normal((n, d)), rng.standard_normal((k, d))
        labels = rng.integers(0, k, size=n)
        # the (N, K) log-kernel and P, and two blocks of z_i - mu_k
        assert traced_peak(lambda: gaussian_soft_assign(z, centers, labels)) < n * k * d * 8 / 4

    def test_edge_logits_gather_one_block_of_edges_at_a_time(self, monkeypatch):
        tile = 4096
        monkeypatch.setattr(gaeclust.pairs, "_BLOCK_DOUBLES", tile)
        rng = np.random.default_rng(1)
        n, d = 3000, EMBED_DIM
        z = rng.standard_normal((n, d))
        a = sp.random(n, n, density=0.01, random_state=2, format="csr")
        e = a.nnz
        assert e * d > 100 * tile
        edge_logits(z, a)  # warm: first-call caches are no part of the peak
        peak = traced_peak(lambda: edge_logits(z, a))
        assert peak < e * d * 8 / 4
        # the result and the row ids, E doubles and E int64, plus about one block
        assert peak < 2 * e * 8 + 16 * tile * 8

    def test_row_blocks_give_the_whole_tensor_bits(self, monkeypatch):
        rng = np.random.default_rng(2)
        for _ in range(12):
            n, k = int(rng.integers(1, 400)), int(rng.integers(1, 9))
            d = int(rng.integers(1, 20))
            z = rng.standard_normal((n, d)) * rng.uniform(0.1, 10.0)
            centers = rng.standard_normal((k, d))
            labels = rng.integers(0, k, size=n)
            # a budget of a few rows per block, not a divisor of N
            monkeypatch.setattr(gaeclust.pairs, "_BLOCK_DOUBLES",
                                int(rng.integers(1, 8)) * k * d + int(rng.integers(0, k * d)))
            p = student_t_assign(z, centers)
            want_p, want_s = whole_student_t(z, centers)
            assert_bits_equal(p.matrix, want_p)
            assert_bits_equal(p.kernel[2], want_s)
            assert_bits_equal(gaussian_soft_assign(z, centers, labels).matrix,
                              whole_gaussian(z, centers, labels))
            subset = np.sort(rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False))
            for rows in (None, subset):
                for grad_centers in (True, False):
                    got = dgae_clus_loss(p, labels, rows, grad_centers=grad_centers)
                    want = whole_clus_loss(z, centers, labels, rows, grad_centers)
                    assert got[0] == want[0]
                    assert_bits_equal(got[1], want[1])
                    if grad_centers:
                        assert_bits_equal(got[2], want[2])
                    else:
                        assert got[2] is None
            a = random_graph(rng, n, p=float(rng.uniform(0.0, 0.5)))
            monkeypatch.setattr(gaeclust.pairs, "_BLOCK_DOUBLES",
                                int(rng.integers(1, 40)) * 2 * d + int(rng.integers(0, 2 * d)))
            assert_bits_equal(edge_logits(z, a), whole_edge_logits(z, a))

    @pytest.mark.parametrize("arch", ["gae", "vgae", "dgae"])
    @pytest.mark.parametrize("training", [False, True])
    def test_encode_keeps_one_hidden_float_array(self, blobs3, arch, training):
        model = init_model(arch, blobs3.x.shape[1], seed=0)
        n = blobs3.n_nodes
        assert blobs3.x.shape[1] != HIDDEN_DIM
        _, caches = encode(model, normalize_adjacency(blobs3, "propagation"), blobs3.x,
                           training=training)
        hidden = {k: v.dtype for k, v in caches.items()
                  if isinstance(v, np.ndarray) and v.shape == (n, HIDDEN_DIM)}
        assert hidden == {"m2": np.float64, "mask": np.bool_}


class TestDgaeLoss:
    def test_loss_matches_scalar_kl(self):
        rng = np.random.default_rng(17)
        z = rng.standard_normal((9, 3))
        centers = rng.standard_normal((3, 3))
        p = student_t_assign(z, centers)
        loss, _, _ = dgae_clus_loss(p, p.labels())
        assert loss == pytest.approx(kl_scalar(onehot(p.labels(), 3), p.matrix), rel=1e-12)

    def test_row_restriction(self):
        rng = np.random.default_rng(18)
        z = rng.standard_normal((8, 2))
        centers = rng.standard_normal((2, 2))
        p = student_t_assign(z, centers)
        rows = np.array([1, 4, 6])
        loss, grad_z, _ = dgae_clus_loss(p, p.labels(), rows)
        assert loss == pytest.approx(kl_scalar(onehot(p.labels(), 2), p.matrix, rows),
                                     rel=1e-12)
        off = np.setdiff1d(np.arange(8), rows)
        assert np.array_equal(grad_z[off], np.zeros((5, 2)))

    def test_loss_reads_the_rows_of_student_t_assign(self):
        # the loss reads P's rows and kernel; the summed terms are those of
        # the full P's rows, bit for bit
        rng = np.random.default_rng(25)
        for _ in range(20):
            n, k = int(rng.integers(2, 300)), int(rng.integers(2, 8))
            z = rng.standard_normal((n, EMBED_DIM)) * rng.uniform(0.1, 10.0)
            centers = rng.standard_normal((k, EMBED_DIM))
            labels = rng.integers(0, k, size=n)
            rows = np.sort(rng.choice(n, size=int(rng.integers(0, n + 1)), replace=False))
            assignment = student_t_assign(z, centers)
            p = assignment.matrix[rows]
            terms = np.zeros_like(p)
            terms[np.arange(rows.size), labels[rows]] = -np.log(
                np.maximum(p[np.arange(rows.size), labels[rows]], 1e-12))
            loss, grad_z, grad_centers = dgae_clus_loss(assignment, labels, rows)
            assert loss == float(terms.sum())
            # P of the rows alone gives the same bits, the other rows' gradient is 0
            alone = dgae_clus_loss(student_t_assign(z[rows], centers), labels[rows])
            assert alone[0] == loss and np.array_equal(alone[2], grad_centers)
            assert np.array_equal(alone[1], grad_z[rows])
            assert not np.delete(grad_z, rows, axis=0).any()
            skipped = dgae_clus_loss(assignment, labels, rows, grad_centers=False)
            assert skipped[0] == loss and np.array_equal(skipped[1], grad_z)
            assert skipped[2] is None

    def test_needs_a_student_t_assignment(self):
        # a Gaussian P carries no Student-t kernel to differentiate through
        rng = np.random.default_rng(26)
        z, centers = rng.standard_normal((6, 2)), rng.standard_normal((3, 2))
        labels = np.array([0, 0, 1, 1, 2, 2])
        with pytest.raises(DataError, match="Student-t"):
            dgae_clus_loss(gaussian_soft_assign(z, centers, labels), labels)

    def test_grad_z_matches_finite_diff(self):
        rng = np.random.default_rng(19)
        z = rng.standard_normal((7, 3))
        centers = rng.standard_normal((3, 3))
        labels = student_t_assign(z, centers).labels()
        rows = np.array([0, 2, 3, 5])

        def f(y):
            p = student_t_assign(y, centers)
            return kl_scalar(onehot(labels, 3), p.matrix, rows)

        _, got, _ = dgae_clus_loss(student_t_assign(z, centers), labels, rows)
        fd = finite_diff_grad(f, z.copy())
        assert grad_close(got, fd)

    def test_grad_centers_matches_finite_diff(self):
        rng = np.random.default_rng(20)
        z = rng.standard_normal((7, 3))
        centers = rng.standard_normal((3, 3))
        labels = student_t_assign(z, centers).labels()

        def f(c):
            p = student_t_assign(z, c)
            return kl_scalar(onehot(labels, 3), p.matrix)

        _, _, got = dgae_clus_loss(student_t_assign(z, centers), labels)
        fd = finite_diff_grad(f, centers.copy())
        assert grad_close(got, fd)

    def test_clamp_flag_and_floored_loss(self):
        z = np.array([[0.0, 0.0]])
        centers = np.array([[0.0, 0.0], [1e7, 0.0]])
        p = student_t_assign(z, centers)
        assert p.matrix[0, 1] < 1e-12
        loss, _, _ = dgae_clus_loss(p, np.array([1]))
        assert loss == pytest.approx(-np.log(1e-12), rel=1e-12)

    def test_shape_mismatch(self):
        p = student_t_assign(np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(ShapeError):
            dgae_clus_loss(p, np.array([0, 1, 0]))

    def test_labels_outside_range(self):
        p = student_t_assign(np.zeros((2, 2)), np.zeros((3, 2)))
        for labels in ([0, 3], [-1, 0]):
            with pytest.raises(DataError):
                dgae_clus_loss(p, np.array(labels))


class TestVgaeKl:
    def test_loss_matches_scalar_formula(self):
        rng = np.random.default_rng(21)
        mu = rng.standard_normal((6, 4))
        logstd = rng.standard_normal((6, 4)) * 0.3
        loss, _, _ = vgae_kl_prior(mu, logstd)
        expected = 0.0
        for i in range(6):
            for d in range(4):
                s2 = np.exp(2 * logstd[i, d])
                expected += 0.5 * (mu[i, d] ** 2 + s2 - 1.0 - np.log(s2))
        assert loss == pytest.approx(expected / 36, rel=1e-12)

    def test_zero_at_standard_normal(self):
        loss, d_mu, d_logstd = vgae_kl_prior(np.zeros((5, 3)), np.zeros((5, 3)))
        assert loss == 0.0
        assert np.array_equal(d_mu, np.zeros((5, 3)))
        assert np.array_equal(d_logstd, np.zeros((5, 3)))

    def test_grads_match_finite_diff(self):
        rng = np.random.default_rng(22)
        mu = rng.standard_normal((5, 3))
        logstd = rng.standard_normal((5, 3)) * 0.4
        _, d_mu, d_logstd = vgae_kl_prior(mu, logstd)
        fd_mu = finite_diff_grad(lambda m: vgae_kl_prior(m, logstd)[0], mu.copy())
        fd_ls = finite_diff_grad(lambda s: vgae_kl_prior(mu, s)[0], logstd.copy())
        assert grad_close(d_mu, fd_mu)
        assert grad_close(d_logstd, fd_ls)

    def test_pretraining_learns_an_embedding(self):
        # at a KL weight N times the reference's, mu collapsed to the prior
        # and the pos-weighted BCE stayed at log 2 (0.692, mean |mu| 0.025 here)
        graph = planted_partition(120, 3, 0.25, 0.02, seed=0, feature_dim=8)
        model = pretrain(init_model("vgae", 8, seed=0), graph, TrainConfig(pretrain_epochs=100))
        mu, _ = encode(model, normalize_adjacency(graph, "propagation"), graph.x)
        assert recon_loss(mu, graph.adjacency, "pos_weighted") < math.log(2) - 0.1
        assert np.abs(mu).mean() > 0.1


class TestThetaGradients:
    """Finite differences through the full encoder, per architecture."""

    def setup_case(self, arch, seed=23):
        graph = planted_partition(10, 2, 0.6, 0.1, seed=seed, feature_dim=3)
        model = init_model(arch, 3, seed=seed)
        a_prop = normalize_adjacency(graph, "propagation")
        return graph, model, a_prop

    def check_against_fd(self, model, loss_of_theta, grads, tol=1e-5):
        for name in model.weights:
            w0 = model.weights[name].copy()

            def f(w, _name=name, _w0=w0):
                model.weights[_name] = w
                try:
                    return loss_of_theta()
                finally:
                    model.weights[_name] = _w0

            fd = finite_diff_grad(f, w0.copy(), h=1e-6)
            assert grad_close(grads[name], fd, tol), name

    def test_gae_reconstruction_path(self):
        graph, model, a_prop = self.setup_case("gae")

        def loss_of_theta():
            z, _ = encode(model, a_prop, graph.x)
            return recon_loss(z, graph.adjacency, "pos_weighted")

        z, caches = encode(model, a_prop, graph.x)
        grads = backprop_theta(caches, recon_grad_z(z, graph.adjacency, "pos_weighted"))
        self.check_against_fd(model, loss_of_theta, grads)

    def test_vgae_training_path_with_prior(self):
        graph, model, a_prop = self.setup_case("vgae")

        def loss_of_theta():
            model.rng = np.random.default_rng(99)
            z, caches = encode(model, a_prop, graph.x, training=True)
            kl, _, _ = vgae_kl_prior(caches["mu"], caches["logstd"])
            return recon_loss(z, graph.adjacency, "pos_weighted") + kl

        model.rng = np.random.default_rng(99)
        z, caches = encode(model, a_prop, graph.x, training=True)
        kl, d_mu, d_logstd = vgae_kl_prior(caches["mu"], caches["logstd"])
        grads = backprop_theta(caches,
                               recon_grad_z(z, graph.adjacency, "pos_weighted"),
                               d_mu, d_logstd)
        self.check_against_fd(model, loss_of_theta, grads)

    def test_dgae_kl_path(self):
        graph, model, a_prop = self.setup_case("dgae")
        rng = np.random.default_rng(24)
        centers = rng.standard_normal((2, EMBED_DIM))
        z0, _ = encode(model, a_prop, graph.x)
        labels = student_t_assign(z0, centers).labels()
        rows = np.array([0, 1, 4, 7, 9])

        def loss_of_theta():
            z, _ = encode(model, a_prop, graph.x)
            p = student_t_assign(z, centers)
            return kl_scalar(onehot(labels, 2), p.matrix, rows)

        z, caches = encode(model, a_prop, graph.x)
        _, grad_z, _ = dgae_clus_loss(student_t_assign(z, centers), labels, rows)
        grads = backprop_theta(caches, grad_z)
        self.check_against_fd(model, loss_of_theta, grads)

    def test_flatten_theta_sorted_and_stable(self):
        model = init_model("vgae", 4, seed=0)
        flat = flatten_theta(model.weights)
        expected = np.concatenate([model.weights[k].ravel()
                                   for k in ("w1", "w2_logstd", "w2_mu")])
        assert np.array_equal(flat, expected)


class TestTrainingSteps:
    def test_reconstruction_step_decreases_loss(self, blobs2):
        model = init_model("gae", blobs2.x.shape[1], seed=0)
        a_prop = normalize_adjacency(blobs2, "propagation")
        losses = [reconstruction_step(model, a_prop, blobs2.x, blobs2.adjacency)[0]
                  for _ in range(40)]
        assert losses[-1] < losses[0]
        assert all(np.isfinite(v) for v in losses)

    def test_pretrain_runs_requested_epochs(self, blobs2):
        model = init_model("gae", blobs2.x.shape[1], seed=0)
        pretrain(model, blobs2, TrainConfig(pretrain_epochs=5))
        assert model.adam.step_count == 5

    def test_pretrain_steps_at_config_lr(self, blobs2):
        trained = {}
        for lr in (0.01, 0.5):
            model = init_model("gae", blobs2.x.shape[1], seed=0)
            pretrain(model, blobs2, TrainConfig(pretrain_epochs=3, lr=lr))
            assert model.adam.lr == lr
            trained[lr] = model.weights
        assert not np.array_equal(trained[0.01]["w1"], trained[0.5]["w1"])

    def test_vgae_step_advances_rng(self, blobs2):
        model = init_model("vgae", blobs2.x.shape[1], seed=0)
        a_prop = normalize_adjacency(blobs2, "propagation")
        before = copy.deepcopy(model.rng.bit_generator.state)
        reconstruction_step(model, a_prop, blobs2.x, blobs2.adjacency)
        assert model.rng.bit_generator.state != before


class TestCheckpoints:
    def make_trained_dgae(self, graph, steps=3):
        model = init_model("dgae", graph.x.shape[1], seed=4)
        a_prop = normalize_adjacency(graph, "propagation")
        for _ in range(steps):
            reconstruction_step(model, a_prop, graph.x, graph.adjacency)
        model.centers = np.random.default_rng(1).standard_normal((graph.k_clusters,
                                                                  EMBED_DIM))
        return model

    def test_bitwise_round_trip(self, tmp_path, blobs2):
        model = self.make_trained_dgae(blobs2)
        save_checkpoint(model, tmp_path / "m.json")
        back = load_checkpoint(tmp_path / "m.json")
        assert back.arch == model.arch
        assert back.in_dim == model.in_dim
        for k in model.weights:
            assert np.array_equal(back.weights[k], model.weights[k]), k
        for k in model.adam.m:
            assert np.array_equal(back.adam.m[k], model.adam.m[k])
            assert np.array_equal(back.adam.v[k], model.adam.v[k])
        assert back.adam.step_count == model.adam.step_count
        assert np.array_equal(back.centers, model.centers)
        assert back.rng.bit_generator.state == model.rng.bit_generator.state

    def test_resume_reproduces_uninterrupted_run(self, tmp_path, blobs2):
        a_prop = normalize_adjacency(blobs2, "propagation")

        straight = init_model("vgae", blobs2.x.shape[1], seed=9)
        for _ in range(10):
            reconstruction_step(straight, a_prop, blobs2.x, blobs2.adjacency)

        resumed = init_model("vgae", blobs2.x.shape[1], seed=9)
        for _ in range(5):
            reconstruction_step(resumed, a_prop, blobs2.x, blobs2.adjacency)
        save_checkpoint(resumed, tmp_path / "half.json")
        resumed = load_checkpoint(tmp_path / "half.json")
        for _ in range(5):
            reconstruction_step(resumed, a_prop, blobs2.x, blobs2.adjacency)

        for k in straight.weights:
            assert np.array_equal(straight.weights[k], resumed.weights[k]), k

    def test_version_check(self, tmp_path, blobs2):
        model = init_model("gae", blobs2.x.shape[1], seed=0)
        save_checkpoint(model, tmp_path / "m.json")
        import json as _json
        payload = _json.loads((tmp_path / "m.json").read_text())
        payload["format_version"] = 99
        (tmp_path / "m.json").write_text(_json.dumps(payload))
        with pytest.raises(StateError):
            load_checkpoint(tmp_path / "m.json")

    @staticmethod
    def assert_same_files(a, b):
        """Both files of two checkpoints, header and array sidecar, hold equal bytes."""
        for suffix in ("", ".f8"):
            assert Path(f"{a}{suffix}").read_bytes() == Path(f"{b}{suffix}").read_bytes(), suffix

    def test_equal_models_give_identical_files(self, tmp_path, blobs2):
        save_checkpoint(self.make_trained_dgae(blobs2), tmp_path / "a.json")
        save_checkpoint(self.make_trained_dgae(blobs2), tmp_path / "b.json")
        self.assert_same_files(tmp_path / "a.json", tmp_path / "b.json")

    def test_pretraining_gives_identical_files_at_any_worker_count(self, tmp_path, monkeypatch,
                                                                   blobs3):
        # a small strip budget splits the 60-node pair sweep into 13 strips
        monkeypatch.setattr(gaeclust.pairs, "_TILE_DOUBLES", 182)
        for workers in (1, 3):
            set_workers(monkeypatch, workers)
            model = init_model("gae", blobs3.x.shape[1], seed=5)
            pretrain(model, blobs3, TrainConfig(pretrain_epochs=3))
            save_checkpoint(model, tmp_path / f"workers{workers}.json")
        self.assert_same_files(tmp_path / "workers1.json", tmp_path / "workers3.json")

    @pytest.mark.parametrize("arch", ["gae", "vgae", "dgae"])
    def test_save_load_save_is_byte_identical(self, tmp_path, blobs2, arch):
        model = init_model(arch, blobs2.x.shape[1], seed=2)
        a_prop = normalize_adjacency(blobs2, "propagation")
        reconstruction_step(model, a_prop, blobs2.x, blobs2.adjacency)
        model.provenance = {"graph_sha256": "ab", "pretrain_epochs": 1, "lr": 0.01}
        model.kernels = {"blas_core": "Haswell", "numpy_simd": ["X86_V3"]}
        save_checkpoint(model, tmp_path / "a.json")
        save_checkpoint(load_checkpoint(tmp_path / "a.json"), tmp_path / "b.json")
        self.assert_same_files(tmp_path / "a.json", tmp_path / "b.json")

    def test_a_header_that_cannot_be_written_leaves_no_file(self, tmp_path, blobs2):
        model = init_model("gae", blobs2.x.shape[1], seed=0)
        model.provenance = {"graph_sha256": object()}
        with pytest.raises(TypeError, match="not JSON serializable"):
            save_checkpoint(model, tmp_path / "m.json")
        assert list(tmp_path.iterdir()) == []

    def test_version_1_is_refused_with_advice(self, tmp_path):
        (tmp_path / "old.json").write_text('{"format_version": 1, "arch": "gae", "shapes": {}}')
        with pytest.raises(StateError, match="version 1.*delete it and pretrain again"):
            load_checkpoint(tmp_path / "old.json")

    def test_version_2_is_refused_with_advice(self, tmp_path):
        (tmp_path / "old.json").write_text(
            '{"format_version": 2, "arch": "gae", "weights": {"w1": {"shape": [1, 1], '
            '"f8": "AAAAAAAA8D8="}}}')
        with pytest.raises(StateError, match="version 2, not 3: delete it and pretrain again"):
            load_checkpoint(tmp_path / "old.json")

    @staticmethod
    def rename(p, group, name, to):
        """p with the arrays entry (group, name) renamed to the (group, name) pair to."""
        for entry in p["arrays"]:
            if entry[:2] == [group, name]:
                entry[:2] = to
        return p

    @pytest.mark.parametrize("corrupt", [
        lambda p, f8: [1, 2],
        lambda p, f8: {k: v for k, v in p.items() if k != "rng_state"},
        lambda p, f8: {k: v for k, v in p.items() if k != "format_version"},
        lambda p, f8: dict(p, arrays=[e for e in p["arrays"] if e[0] != "m"]),
        lambda p, f8: TestCheckpoints.rename(p, "weights", "w2", ["weights", "w3"]),
        lambda p, f8: f8.unlink() or p,
        lambda p, f8: f8.write_bytes(f8.read_bytes()[:-1]) and p,
        lambda p, f8: f8.write_bytes(f8.read_bytes() + b"\0") and p,
        lambda p, f8: f8.write_bytes(bytes([f8.read_bytes()[0] ^ 1]) + f8.read_bytes()[1:]) and p,
        lambda p, f8: f8.write_bytes(f8.with_name("other.json.f8").read_bytes()) and p,
        lambda p, f8: p["arrays"][0].pop() and p,
        lambda p, f8: TestCheckpoints.rename(p, "centers", "centers", ["biases", "centers"]),
        lambda p, f8: TestCheckpoints.rename(p, "centers", "centers", ["centers", "mu"]),
        lambda p, f8: TestCheckpoints.rename(p, "weights", "w2", ["weights", "w1"]),
        lambda p, f8: p["arrays"][0].__setitem__(2, [3, 3]) or p,
        lambda p, f8: p["arrays"][0].__setitem__(2, "w1") or p,
        lambda p, f8: dict(p, arch="sage"),
        lambda p, f8: p["rng_state"].update(bit_generator="MT19937") or p,
        lambda p, f8: dict(p, rng_state=[0]),
        lambda p, f8: p["rng_state"]["state"].update(state=-1) or p,
    ], ids=["not-an-object", "no-rng-state", "no-version", "no-adam-m", "no-w2", "no-bytes",
            "sidecar-byte-short", "sidecar-byte-extra", "sidecar-byte-flipped",
            "sidecar-of-another-model", "arrays-entry-without-shape", "unknown-group",
            "centers-under-another-name", "repeated-array", "size-vs-shape", "shape-string",
            "unknown-arch", "other-bit-generator", "rng-state-list", "rng-state-negative"])
    def test_malformed_checkpoint_raises_state_error(self, tmp_path, blobs2, corrupt):
        """A header edit or a sidecar edit (missing, a byte short or extra, a
        byte flipped, the equal-size sidecar of another model) is refused."""
        import json as _json
        save_checkpoint(self.make_trained_dgae(blobs2), tmp_path / "m.json")
        save_checkpoint(self.make_trained_dgae(blobs2, steps=4), tmp_path / "other.json")
        assert ((tmp_path / "m.json.f8").stat().st_size
                == (tmp_path / "other.json.f8").stat().st_size)
        payload = corrupt(_json.loads((tmp_path / "m.json").read_text()), tmp_path / "m.json.f8")
        (tmp_path / "m.json").write_text(_json.dumps(payload))
        with pytest.raises(StateError, match="m.json"):
            load_checkpoint(tmp_path / "m.json")

    @staticmethod
    def set_adam(model, **changes):
        for key, value in changes.items():
            setattr(model.adam, key, value)

    @staticmethod
    def set_moment(model, group, name, value):
        getattr(model.adam, group)[name] = value

    @pytest.mark.parametrize("corrupt", [
        lambda m: TestCheckpoints.set_moment(m, "m", "w2", np.zeros(1)),
        lambda m: TestCheckpoints.set_moment(m, "v", "w1", np.zeros((HIDDEN_DIM, EMBED_DIM))),
        lambda m: m.adam.v.pop("w2"),
        lambda m: m.adam.m.pop("w1") is m.adam.v.pop("w1"),
        lambda m: TestCheckpoints.set_moment(m, "m", "w3", np.zeros(1))
        or TestCheckpoints.set_moment(m, "v", "w3", np.zeros(1)),
        lambda m: TestCheckpoints.set_moment(m, "m", "centers", np.zeros((2, 3)))
        or TestCheckpoints.set_moment(m, "v", "centers", np.zeros((2, 3))),
        lambda m: TestCheckpoints.set_adam(m, step_count=0),
        lambda m: TestCheckpoints.set_adam(m, m={}, v={}),
        lambda m: setattr(m, "centers", np.zeros(EMBED_DIM)),
        lambda m: setattr(m, "centers", np.zeros((2, EMBED_DIM - 1))),
        lambda m: setattr(m, "centers", np.zeros((2, EMBED_DIM, 1))),
        lambda m: TestCheckpoints.set_adam(m, lr="x"),
        lambda m: TestCheckpoints.set_adam(m, lr=-1.0),
        lambda m: TestCheckpoints.set_adam(m, lr=0.0),
        lambda m: TestCheckpoints.set_adam(m, lr=math.nan),
        lambda m: TestCheckpoints.set_adam(m, lr=math.inf),
        lambda m: TestCheckpoints.set_adam(m, lr=True),
        lambda m: TestCheckpoints.set_adam(m, step_count="3"),
        lambda m: TestCheckpoints.set_adam(m, step_count=2.5),
        lambda m: TestCheckpoints.set_adam(m, step_count=-4),
        lambda m: TestCheckpoints.set_adam(m, step_count=True),
    ], ids=["m-shape", "v-shape", "v-lacks-a-name", "moments-lack-a-weight", "moment-of-no-array",
            "centers-moment-shape", "moments-at-step-0", "no-moments-after-a-step",
            "centers-1d", "centers-width", "centers-3d", "lr-string", "lr-negative", "lr-zero",
            "lr-nan", "lr-inf", "lr-bool", "step-string", "step-fraction", "step-negative",
            "step-bool"])
    def test_state_that_does_not_fit_the_weights_is_refused(self, tmp_path, blobs2, corrupt):
        """Moments, centers and Adam scalars that do not fit the model are
        refused at load, with the sidecar and its sha256 consistent."""
        model = self.make_trained_dgae(blobs2)
        corrupt(model)
        save_checkpoint(model, tmp_path / "m.json")
        with pytest.raises(StateError, match="m.json"):
            load_checkpoint(tmp_path / "m.json")

    @pytest.mark.parametrize("arch, train_epochs", [("gae", None), ("vgae", None),
                                                    ("dgae", 3), ("dgae", 0)])
    def test_trained_state_round_trips_bitwise(self, tmp_path, blobs3, arch, train_epochs):
        # pretraining checkpoints, and dgae's after clustering epochs (whose
        # moments hold the centers) and at train_epochs=0 (no moments at all)
        cfg = TrainConfig(pretrain_epochs=3, train_epochs=train_epochs or 0, rethink=True,
                          m1=1, m2=1)
        model = pretrain(init_model(arch, blobs3.x.shape[1], seed=3), blobs3, cfg)
        if train_epochs is not None:
            model = train_joint(model, blobs3, cfg, seed=3)[0]
            assert ("centers" in model.adam.m) == (train_epochs > 0)
            assert (model.adam.step_count == 0) == (train_epochs == 0)
        save_checkpoint(model, tmp_path / "a.json")
        back = load_checkpoint(tmp_path / "a.json")
        for group in ("m", "v"):
            got, want = getattr(back.adam, group), getattr(model.adam, group)
            assert sorted(got) == sorted(want)
            for k in want:
                assert np.array_equal(got[k].view(np.uint64), want[k].view(np.uint64)), k
        assert (back.adam.lr, back.adam.step_count) == (model.adam.lr, model.adam.step_count)
        save_checkpoint(back, tmp_path / "b.json")
        self.assert_same_files(tmp_path / "a.json", tmp_path / "b.json")
