"""Test-only oracles, kept independent of the implementation paths they check."""

import numpy as np


def finite_diff_grad(f, tensors, eps=1e-5, picks=None):
    """Central-difference gradient of scalar f() w.r.t. each tensor's data.

    f must rebuild its forward pass from the tensors' current .data on every
    call (the perturbation is applied in place). ``picks``, one array of flat
    indices per tensor, limits the differences to those entries; the others
    stay 0.
    """
    grads = []
    for n, t in enumerate(tensors):
        g = np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        gflat = g.reshape(-1)
        for i in (range(flat.size) if picks is None else picks[n]):
            x0 = flat[i]
            flat[i] = x0 + eps
            fp = f()
            flat[i] = x0 - eps
            fm = f()
            flat[i] = x0
            gflat[i] = (fp - fm) / (2.0 * eps)
        grads.append(g)
    return grads


def max_rel_err(analytic, numeric):
    """max |analytic - numeric| / (|numeric| + 1e-8), elementwise."""
    analytic = np.asarray(analytic)
    numeric = np.asarray(numeric)
    return float(np.max(np.abs(analytic - numeric) / (np.abs(numeric) + 1e-8)))


def check_grads(build_loss, params, eps=1e-5, probes=None):
    """Compare backward() grads against finite differences; returns worst rel err.

    build_loss() -> Tensor scalar, rebuilt from the live parameter tensors.
    ``probes`` checks that many entries of each tensor, drawn with a fixed
    seed, instead of all of them (for model-sized tensors).
    """
    loss = build_loss()
    loss.backward()
    analytic = [p.grad.reshape(-1).copy() for p in params]
    for p in params:
        p.grad = None
    rng = np.random.default_rng(0)
    picks = [np.arange(p.size) if probes is None or probes >= p.size
             else rng.choice(p.size, probes, replace=False) for p in params]
    numeric = finite_diff_grad(lambda: float(build_loss().data), params, eps=eps, picks=picks)
    return max(max_rel_err(a[i], n.reshape(-1)[i])
               for a, n, i in zip(analytic, numeric, picks))


def conv1d_ref(x, w, b, dilation):
    """Direct causal dilated 1-D convolution, (B, C, T) -> (B, O, T), in float64.

    Tap j of a kernel of size K reads x[t - (K - 1 - j) * dilation]; taps
    before the start of the signal read zero.
    """
    x, w, b = (np.asarray(a, dtype=np.float64) for a in (x, w, b))
    B, _, T = x.shape
    O, _, K = w.shape
    out = np.empty((B, O, T))
    for n in range(B):
        for o in range(O):
            for t in range(T):
                acc = b[o]
                for j in range(K):
                    src = t - (K - 1 - j) * dilation
                    if src >= 0:
                        acc += np.dot(w[o, :, j], x[n, :, src])
                out[n, o, t] = acc
    return out


def conv2d_ref(x, w, b, stride, padding, groups):
    """Direct grouped 2-D convolution, (B, C, H, W) -> (B, O, Ho, Wo), in float64.

    Output channel o belongs to group o // (O / groups) and reads only that
    group's block of C / groups input channels.
    """
    x, w, b = (np.asarray(a, dtype=np.float64) for a in (x, w, b))
    B, _, H, W = x.shape
    O, cg, k, _ = w.shape
    sh, sw = stride
    og = O // groups
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    Ho = (H + 2 * padding - k) // sh + 1
    Wo = (W + 2 * padding - k) // sw + 1
    out = np.empty((B, O, Ho, Wo))
    for n in range(B):
        for o in range(O):
            c0 = (o // og) * cg
            for i in range(Ho):
                for j in range(Wo):
                    window = xp[n, c0:c0 + cg, i * sh:i * sh + k, j * sw:j * sw + k]
                    out[n, o, i, j] = b[o] + np.sum(window * w[o])
    return out
