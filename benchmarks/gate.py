"""Dense numpy reference for the pair kernels, independent of the package.

The package evaluates `recon_loss` and `recon_grad_z` in row tiles with
`logaddexp`/`expit`. The reference here materializes the full N x N
logit matrix (about 58 MB at Cora size), writes softplus(-l) as
softplus(l) - l and the sigmoid through tanh, so a rewritten kernel is
compared against a different evaluation of the same formulas.
"""

from __future__ import annotations

import numpy as np

TOLERANCE = 1e-10


def dense_reference(z: np.ndarray, a) -> dict:
    """Loss and gradient of both weightings for embedding z and binary target a."""
    n = z.shape[0]
    dense = a.toarray()
    logits = z @ z.T
    softplus = np.logaddexp(0.0, logits)
    sig = 0.5 * (1.0 + np.tanh(0.5 * logits))
    out = {"loss_plain": float(softplus.sum() - (dense * logits).sum())}
    g = sig - dense
    out["grad_plain"] = g @ z + g.T @ z

    two_e = float(dense.sum())
    w = (n * n - two_e) / two_e
    scale = n * n / (2.0 * (n * n - two_e)) / (n * n)
    out["loss_pos_weighted"] = float(
        scale * (w * dense * (softplus - logits) + (1.0 - dense) * softplus).sum())
    g = scale * (sig * (1.0 + (w - 1.0) * dense) - w * dense)
    out["grad_pos_weighted"] = g @ z + g.T @ z
    return out


def kernel_errors(z: np.ndarray, a, recon_loss, recon_grad_z) -> dict:
    """Relative error of the package kernels against dense_reference.

    Losses are compared by |x - ref| / |ref|, gradients by
    max|g - ref| / max|ref|.
    """
    ref = dense_reference(z, a)
    errors = {}
    for weighting in ("plain", "pos_weighted"):
        loss = recon_loss(z, a, weighting=weighting)
        want = ref[f"loss_{weighting}"]
        errors[f"recon_loss.{weighting}"] = abs(loss - want) / abs(want)
        grad = recon_grad_z(z, a, weighting=weighting)
        want = ref[f"grad_{weighting}"]
        errors[f"recon_grad_z.{weighting}"] = float(np.max(np.abs(grad - want))
                                                    / np.max(np.abs(want)))
    return errors
