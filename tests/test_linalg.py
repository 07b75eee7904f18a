"""Kernels, Adam, finite differences, cosine similarity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gaeclust import NumericsError, ShapeError
from gaeclust.linalg import AdamState, adam_step, cosine, finite_diff_grad


def reference_adam(params, grad_seq, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Textbook Adam recurrence, written independently of the package."""
    p = {k: v.copy() for k, v in params.items()}
    m = {k: np.zeros_like(v) for k, v in params.items()}
    v2 = {k: np.zeros_like(v) for k, v in params.items()}
    for t, grads in enumerate(grad_seq, start=1):
        for k in p:
            g = grads[k]
            m[k] = beta1 * m[k] + (1 - beta1) * g
            v2[k] = beta2 * v2[k] + (1 - beta2) * g**2
            mh = m[k] / (1 - beta1**t)
            vh = v2[k] / (1 - beta2**t)
            p[k] = p[k] - lr * mh / (np.sqrt(vh) + eps)
    return p


class TestAdam:
    def test_ten_steps_match_reference(self):
        rng = np.random.default_rng(1)
        params = {"a": rng.standard_normal((3, 2)), "b": rng.standard_normal(4)}
        grad_seq = [{k: rng.standard_normal(v.shape) for k, v in params.items()}
                    for _ in range(10)]
        expected = reference_adam(params, grad_seq, lr=0.05)

        state = AdamState(lr=0.05)
        current = {k: v.copy() for k, v in params.items()}
        for grads in grad_seq:
            current = adam_step(state, current, grads)
        for k in params:
            assert np.allclose(current[k], expected[k], atol=1e-14), k
        assert state.step_count == 10

    def test_first_step_size_is_lr(self):
        # bias correction makes the very first update lr * sign(g) up to eps
        state = AdamState(lr=0.1)
        p = {"w": np.array([1.0, -2.0])}
        g = {"w": np.array([3.0, -0.5])}
        out = adam_step(state, p, g)
        step = out["w"] - p["w"]
        assert np.allclose(step, -0.1 * np.sign(g["w"]), atol=1e-7)

    def test_inputs_not_mutated(self):
        state = AdamState()
        p = {"w": np.ones(3)}
        g = {"w": np.full(3, 2.0)}
        adam_step(state, p, g)
        assert np.array_equal(p["w"], np.ones(3))

    def test_lazy_buffer_creation(self):
        state = AdamState()
        adam_step(state, {"a": np.ones(2)}, {"a": np.ones(2)})
        assert set(state.m) == {"a"}
        adam_step(state, {"a": np.ones(2), "b": np.ones(3)},
                  {"a": np.ones(2), "b": np.ones(3)})
        assert set(state.m) == {"a", "b"}
        assert state.step_count == 2

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            adam_step(AdamState(), {"w": np.ones(3)}, {"w": np.ones(4)})

    def test_nonfinite_gradient(self):
        with pytest.raises(NumericsError):
            adam_step(AdamState(), {"w": np.ones(2)}, {"w": np.array([1.0, np.nan])})


class TestFiniteDiff:
    def test_quadratic_gradient(self):
        # f(x) = x^T M x has gradient (M + M^T) x
        rng = np.random.default_rng(2)
        m = rng.standard_normal((4, 4))
        x = rng.standard_normal(4)
        got = finite_diff_grad(lambda y: float(y @ m @ y), x)
        assert np.allclose(got, (m + m.T) @ x, atol=1e-6)

    def test_matrix_argument(self):
        x = np.arange(6.0).reshape(2, 3) / 3.0
        got = finite_diff_grad(lambda y: float(np.sum(np.sin(y))), x)
        assert np.allclose(got, np.cos(x), atol=1e-8)
        assert got.shape == x.shape

    def test_non_contiguous_argument(self):
        x = np.arange(12.0).reshape(3, 4)[:, ::2]
        got = finite_diff_grad(lambda v: (v**2).sum(), x)
        assert np.allclose(got, 2.0 * x, atol=1e-6)
        assert got.shape == x.shape
        assert np.array_equal(x, np.arange(12.0).reshape(3, 4)[:, ::2])

    def test_bad_step(self):
        with pytest.raises(NumericsError):
            finite_diff_grad(lambda y: 0.0, np.ones(2), h=0.0)

    def test_nonfinite_function(self):
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericsError):
                finite_diff_grad(lambda y: float(np.log(y[0])), np.array([-1.0]))


class TestCosine:
    def test_hand_value(self):
        got = cosine(np.array([1.0, 0.0]), np.array([1.0, 1.0]))
        assert got.value == pytest.approx(1 / np.sqrt(2), abs=1e-15)
        assert not got.degenerate

    def test_identical_inputs_exactly_one(self):
        rng = np.random.default_rng(3)
        u = rng.standard_normal(17) * 1e-3
        got = cosine(u, u.copy())
        assert got.value == 1.0

    def test_negated_inputs_exactly_minus_one(self):
        u = np.array([0.1, -0.7, 3.0])
        assert cosine(u, -u).value == -1.0

    def test_zero_vector_degenerate(self):
        got = cosine(np.zeros(4), np.ones(4))
        assert got.value == 0.0
        assert got.degenerate

    def test_orthogonal(self):
        got = cosine(np.array([1.0, 0.0]), np.array([0.0, 5.0]))
        assert got.value == 0.0
        assert not got.degenerate

    def test_matrices_flattened(self):
        u = np.array([[1.0, 0.0], [0.0, 0.0]])
        v = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert cosine(u, v).value == 0.0

    @settings(max_examples=60, deadline=None)
    @given(hnp.arrays(np.float64, st.integers(1, 8),
                      elements=st.floats(-1e3, 1e3, allow_nan=False)),
           hnp.arrays(np.float64, st.integers(1, 8),
                      elements=st.floats(-1e3, 1e3, allow_nan=False)))
    def test_bounded_and_symmetric(self, u, v):
        if u.shape != v.shape:
            u = np.resize(u, v.shape)
        got = cosine(u, v)
        assert -1.0 <= got.value <= 1.0
        sym = cosine(v, u)
        assert got.value == pytest.approx(sym.value, abs=1e-12)
        assert got.degenerate == sym.degenerate
