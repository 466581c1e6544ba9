"""The class-major EM batch the engine replaced, kept as a test oracle.

``estimate._em_batch`` holds its batch class-outer and pools its M-step into
dense bins; this is the earlier sweep that held each fit class-major (fit,
class, item) and pooled over sparse bins.  Both add the same numbers in the
same order, so every ``FitResult`` field of the two must be byte-equal.
Run it in place of the engine's sweep with ``monkeypatch.setattr(estimate,
"_em_batch", em_batch)``, so that both take their inputs from the same
``estimate._fit_all``.
"""

import numpy as np

from qident.estimate import _CLAMP, FitResult, _flip_unit_attributes
from qident.qmatrix import _cells, _gate
from qident.rlcm import _order_violations


def observed_loglik(theta, p, XX, W, work):
    """E-step for fits held class-major: theta (B, C, J), p (B, C) and
    pattern weights W (B, N) over XX = [X | 1 - X | 1]; returns each fit's
    loglik and its posterior times W, a (B*C, N) view of ``work``."""
    B, C, _ = theta.shape
    joint = work[:B]
    logs = np.log(np.concatenate([theta, 1.0 - theta, p[:, :, None]], axis=2))
    np.matmul(logs.reshape(B * C, -1), XX.T, out=joint.reshape(B * C, -1))
    denom = np.exp(joint, out=joint).sum(axis=1, keepdims=True)
    loglik = (W[:, None, :] @ np.log(denom).transpose(0, 2, 1))[:, 0, 0]
    return loglik, np.multiply(joint, W[:, None, :] / denom, out=joint).reshape(B * C, -1)


def _bins(cells):
    """The gather index and the flat (fit, class, copy, item) bincount
    index of the m fits left in a batch, from their (item, label) bins
    ``cells`` (m, C, J)."""
    gather = cells + cells[0].size * np.arange(len(cells))[:, None, None]
    return gather, np.stack([gather, gather + gather.size], axis=2).ravel()


def em_batch(model, masks, K, X, W, starts, tol, max_iter, paths):
    """``estimate._em_batch`` as it was with the batch held class-major."""
    (B, J), C, N = masks.shape, 1 << K, len(X)
    theta, p = np.stack([t.T for t, _ in starts]), np.stack([a for _, a in starts])
    labels = _cells(masks, K) if model == "gdina" else _gate(masks, K, model)
    cells = np.ascontiguousarray(labels.transpose(0, 2, 1)) + C * np.arange(J)
    gather, flat = _bins(cells)
    take = np.append(np.arange(J), np.full(J, J))
    XX = np.hstack([X, 1.0 - X, np.ones((N, 1))])
    XI = np.hstack([X, np.ones((N, 1)), np.zeros((N, -(J + 1) % 8))])
    work = np.empty((B, C, N))
    out_theta, out_p = theta.copy(), p.copy()
    iterations, converged = np.full(B, max_iter), np.zeros(B, dtype=bool)
    active, w, n, prev = np.arange(B), W, W.sum(axis=1), np.full(B, -np.inf)
    trail = [(active[:0], prev[:0])]
    for it in range(1, max_iter + 1):
        loglik, wpost = observed_loglik(theta, p, XX, w, work)
        mass = wpost[:, :256] @ XI[:256]
        for lo in range(256, N, 256):
            mass += wpost[:, lo:lo + 256] @ XI[lo:lo + 256]
        pos, tot = np.bincount(flat, mass[:, take].ravel(), flat.size).reshape(2, -1)
        val = pos / np.maximum(tot, 1e-300)
        theta = np.minimum(np.maximum(val, _CLAMP), 1 - _CLAMP)[gather]
        p = np.maximum(mass[:, J].reshape(p.shape) / n[:, None], _CLAMP / C)
        p /= p.sum(axis=1, keepdims=True)

        if paths:
            trail.append((active, loglik))
        done = np.abs(loglik - prev) < tol
        prev = loglik
        if done.any():
            out_theta[active[done]], out_p[active[done]] = theta[done], p[done]
            iterations[active[done]], converged[active[done]] = it, True
            active, theta, p, prev, w, n = (a[~done] for a in (active, theta, p, prev, w, n))
            if not len(active):
                break
            gather, flat = _bins(cells[active])
    out_theta[active], out_p[active] = theta, p

    theta, p = out_theta.transpose(0, 2, 1), out_p
    if model != "gdina":
        _flip_unit_attributes(theta, p, masks)
    mono_ok, stringent_ok = (v <= 0 for v in _order_violations(theta, masks))
    final, _ = observed_loglik(out_theta, p, XX, W, work)
    if paths:
        order = np.argsort(np.concatenate([a for a, _ in trail]), kind="stable")
        sweeps = np.split(np.concatenate([v for _, v in trail])[order], np.cumsum(iterations)[:-1])

    for b in range(B):
        yield FitResult(
            model=model,
            loglik=float(final[b]),
            s=None if model == "gdina" else 1.0 - theta[b, :, -1],
            g=None if model == "gdina" else theta[b, :, 0].copy(),
            theta=theta[b].copy(),
            p=p[b].copy(),
            iterations=int(iterations[b]),
            converged=bool(converged[b]),
            monotonicity_ok=bool(mono_ok[b]),
            stringent_ok=bool(stringent_ok[b]),
            loglik_path=np.append(sweeps[b], final[b]) if paths else None,
        )
