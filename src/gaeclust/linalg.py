"""Adam, the gradient cosine, and the finite-difference oracle.

Everything here is deterministic float64 numpy: nothing reorders
reductions between calls with identical inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import NumericsError, ShapeError

# Adam's moment decay rates and denominator guard, the defaults of Kingma & Ba
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    """Adam optimizer state for a named parameter collection.

    Moment buffers are keyed by parameter name and created lazily on the
    first step so the state can be built before the parameter shapes are
    known.
    """

    lr: float = 0.01
    step_count: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(state: AdamState, params: dict, grads: dict) -> dict:
    """One Adam update over a dict of named parameter arrays.

    Parameters
    ----------
    state : AdamState
        Mutated in place (moment buffers, step counter).
    params, grads : dict of str -> ndarray
        Same keys and shapes.

    Returns
    -------
    dict of str -> ndarray
        Updated parameters (new arrays; inputs are not modified).
    """
    state.step_count += 1
    t = state.step_count
    out = {}
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ShapeError(f"adam_step: grad shape {g.shape} != param shape {p.shape} for {name!r}")
        if not np.all(np.isfinite(g)):
            raise NumericsError(f"adam_step: non-finite gradient for {name!r}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        state.m[name] = ADAM_BETA1 * state.m[name] + (1.0 - ADAM_BETA1) * g
        state.v[name] = ADAM_BETA2 * state.v[name] + (1.0 - ADAM_BETA2) * g * g
        m_hat = state.m[name] / (1.0 - ADAM_BETA1 ** t)
        v_hat = state.v[name] / (1.0 - ADAM_BETA2 ** t)
        out[name] = p - state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return out


def finite_diff_grad(f: Callable[[np.ndarray], float], x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function, coordinate by coordinate.

    The oracle used to verify every closed-form gradient in the package.
    """
    if h <= 0.0:
        raise NumericsError("finite_diff_grad: step h must be > 0")
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat_x = x.ravel()
    flat_g = grad.ravel()
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + h
        f_plus = float(f(x))
        flat_x[i] = orig - h
        f_minus = float(f(x))
        flat_x[i] = orig
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise NumericsError("finite_diff_grad: function returned non-finite value")
        flat_g[i] = (f_plus - f_minus) / (2.0 * h)
    return grad


class Cosine(NamedTuple):
    """Cosine similarity plus a flag marking degenerate (near-zero) inputs."""

    value: float
    degenerate: bool


def cosine(u: np.ndarray, v: np.ndarray) -> Cosine:
    """Cosine similarity of two flattened arrays.

    When either operand has norm < 1e-15 the value is 0.0 and the
    degenerate flag is set, keeping diagnostic traces plottable.
    """
    u = np.asarray(u, dtype=np.float64).ravel()
    v = np.asarray(v, dtype=np.float64).ravel()
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu < 1e-15 or nv < 1e-15:
        return Cosine(0.0, True)
    # identical (or exactly opposite) inputs have cosine exactly +/-1;
    # bypass the rounding of norm products for them
    if np.array_equal(u, v):
        return Cosine(1.0, False)
    if np.array_equal(u, -v):
        return Cosine(-1.0, False)
    val = float(np.dot(u, v) / (nu * nv))
    return Cosine(min(1.0, max(-1.0, val)), False)
