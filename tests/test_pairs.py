"""The pair engine (gaeclust.pairs): the gradient's add order, the edge
sigmoid and the edge logits."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.special import expit

import gaeclust.models
import gaeclust.pairs
from gaeclust import ShapeError, TrainConfig, init_model, pretrain
from gaeclust.pairs import PairPass, recon_grad_z, recon_loss

from conftest import pair_targets


class TestReconGradAddOrder:
    """recon_grad_z adds scale * (2 sigmoid(L) Z + C Z + C^T Z) left to right,
    with C from its formula, whatever the caller hands it."""

    @pytest.mark.parametrize("weighting", ["plain", "pos_weighted"])
    @pytest.mark.parametrize("target", ["symmetric", "asymmetric_weighted"])
    def test_bitwise_equal_to_the_formula(self, weighting, target):
        rng = np.random.default_rng(27)
        n = 37
        z = rng.standard_normal((n, 5)) * 1.5
        a = pair_targets(rng, n)[target]
        _, sigmoid_z = PairPass(z).sums()
        w, scale = ((1.0, 1.0) if weighting == "plain" else
                    ((n * n - a.nnz) / a.nnz, 0.5 / (n * n - a.nnz)))
        rows = np.repeat(np.arange(n), np.diff(a.indptr))
        logits = np.einsum("ed,ed->e", z[rows], z[a.indices])
        # the kernel's sigmoid; at w = 1 this is C = -A
        sigmoid = 1.0 / (1.0 + np.exp(-logits))
        c = sp.csr_matrix((a.data * ((w - 1.0) * sigmoid - w), a.indices, a.indptr),
                          shape=a.shape)
        cz, ctz = c @ z, c.T @ z
        want = scale * (2.0 * sigmoid_z + cz + ctz)
        for source in (z, PairPass(z), PairPass(z).start()):
            assert np.array_equal(recon_grad_z(source, a, weighting), want)
            assert np.array_equal(recon_grad_z(source, a, weighting, logits=logits), want)


class TestExpit:
    """pairs._sigmoid, the pos-weighted gradient's sigmoid(l_e), takes numpy's
    exp as the strips do, and imports no scipy.special."""

    def test_numpy_exp_against_scipy_on_a_grid(self):
        big = np.log(np.finfo(np.float64).max)  # where exp starts to overflow
        edges = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1e-300,
                 0.5, 36.7, 37.0, 709.78, -709.78, 709.79, -709.79, big, -big,
                 np.nextafter(big, np.inf), -np.nextafter(big, np.inf), 745.2, -745.2,
                 1e300, -1e300, np.finfo(np.float64).max, -np.finfo(np.float64).max,
                 np.inf, -np.inf, np.nan]
        rng = np.random.default_rng(5)
        x = np.concatenate([edges, rng.standard_normal(20_000) * 12.0,
                            np.linspace(-760.0, 760.0, 20_001)])
        with np.errstate(all="raise"):
            got = gaeclust.pairs._sigmoid(x)
        want = expit(x)
        assert got.dtype == np.float64 and got.shape == x.shape
        # +-0, +-inf and NaN; exp(-x) overflowing (sigmoid 0) or below half an
        # ulp of 1 (sigmoid 1): the same bits whatever exp kernel numpy runs
        exact = (x == 0.0) | np.isinf(x) | np.isnan(x) | (-x > big) | (x >= 37.0)
        assert np.array_equal(got[exact].view(np.uint64), want[exact].view(np.uint64))
        # elsewhere numpy's SIMD exp may differ from libm's in the last bits
        ulps = np.abs(got[~exact].view(np.int64) - want[~exact].view(np.int64))
        assert ulps.max() <= 4

    def test_empty(self):
        assert gaeclust.pairs._sigmoid(np.empty(0)).shape == (0,)

    def test_a_pretraining_epoch_never_loads_scipy_special(self, tmp_path):
        # a subprocess, since this module imports scipy.special for its oracles
        script = ("import sys\n"
                  "import numpy as np\n"
                  "import gaeclust\n"
                  "rng = np.random.default_rng(0)\n"
                  "edges = np.argwhere(np.triu(rng.random((40, 40)) < 0.2, k=1))\n"
                  "graph = gaeclust.make_graph(40, edges, features=rng.random((40, 6)))\n"
                  "model = gaeclust.init_model('gae', 6, seed=0)\n"
                  "gaeclust.pretrain(model, graph, gaeclust.TrainConfig(pretrain_epochs=1))\n"
                  "assert model.adam.step_count == 1\n"
                  "print('scipy.special' in sys.modules)\n")
        env = {**os.environ, "PYTHONPATH": str(Path(gaeclust.pairs.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.split() == ["False"]


class TestEdgeLogits:
    def spy(self, monkeypatch) -> list:
        calls = []
        real = gaeclust.pairs.edge_logits
        # reconstruction_step reads the models module's binding, recon_loss and
        # recon_grad_z the pairs module's
        for module in (gaeclust.models, gaeclust.pairs):
            monkeypatch.setattr(module, "edge_logits",
                                lambda *args: calls.append(1) or real(*args))
        return calls

    def test_once_per_pretraining_step(self, blobs2, monkeypatch):
        calls = self.spy(monkeypatch)
        model = init_model("gae", blobs2.features.shape[1], seed=0)
        pretrain(model, blobs2, TrainConfig(pretrain_epochs=3))
        assert len(calls) == 3

    def test_never_in_a_plain_gradient(self, monkeypatch):
        rng = np.random.default_rng(28)
        z = rng.standard_normal((20, 3))
        a = pair_targets(rng, 20)["weighted"]
        calls = self.spy(monkeypatch)
        recon_grad_z(z, a, "plain")
        assert calls == []
        recon_grad_z(z, a, "pos_weighted")
        recon_loss(z, a, "plain")
        assert len(calls) == 2

    def test_handed_logits_match_the_target(self):
        rng = np.random.default_rng(29)
        z = rng.standard_normal((20, 3))
        a = pair_targets(rng, 20)["symmetric"]
        logits = gaeclust.pairs.edge_logits(z, a)
        assert logits.shape == (a.nnz,)
        assert recon_loss(z, a, "pos_weighted", logits=logits) == recon_loss(z, a, "pos_weighted")
        with pytest.raises(ShapeError):
            recon_loss(z, a, "pos_weighted", logits=logits[1:])
        with pytest.raises(ShapeError):
            recon_grad_z(z, a, "pos_weighted", logits=logits[1:])
