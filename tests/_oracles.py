"""Test-only oracles, kept independent of the implementation paths they check."""

import numpy as np

from jamloc.nn import Tensor


def naive_dft(x):
    """Definition-level DFT along the last axis (any length)."""
    x = np.asarray(x)
    n = x.shape[-1]
    k = np.arange(n)
    w = np.exp(-2j * np.pi * np.outer(k, k) / n)
    return x @ w


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


def conv1d_grads_ref(x, w, g, dilation):
    """Gradients (dx, dw, db) of sum(conv1d(x, w, b) * g), in float64 by einsum
    over explicitly shifted copies: shift s_j = (K - 1 - j) * dilation moves
    x right for the forward taps and g left for the input gradient."""
    x, w, g = (np.asarray(a, dtype=np.float64) for a in (x, w, g))
    B, C, T = x.shape
    K = w.shape[2]
    xs = np.zeros((B, C, K, T))
    gs = np.zeros((B, g.shape[1], K, T))
    for j in range(K):
        s = (K - 1 - j) * dilation
        if s < T:
            xs[:, :, j, s:] = x[:, :, :T - s]
            gs[:, :, j, :T - s] = g[:, :, s:]
    return (np.einsum("ocj,bojt->bct", w, gs), np.einsum("bot,bcjt->ocj", g, xs),
            g.sum(axis=(0, 2)))


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


def conv2d_grads_ref(x, w, g, stride, padding, groups):
    """Gradients (dx, dw, db) of sum(conv2d(x, w, b) * g), in float64 by
    nested loops over the outputs: output (n, o, i, j) adds g times its
    window of the zero-padded input to dw[o], and g times w[o] to that
    window of the padded input's gradient."""
    x, w, g = (np.asarray(a, dtype=np.float64) for a in (x, w, g))
    B, _, H, W = x.shape
    O, cg, k, _ = w.shape
    sh, sw = stride
    og = O // groups
    p = padding
    xp = np.pad(x, ((0, 0), (0, 0), (p, p), (p, p)))
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    for n in range(B):
        for o in range(O):
            c0 = (o // og) * cg
            for i in range(g.shape[2]):
                for j in range(g.shape[3]):
                    win = (n, slice(c0, c0 + cg), slice(i * sh, i * sh + k), slice(j * sw, j * sw + k))
                    dw[o] += g[n, o, i, j] * xp[win]
                    dxp[win] += g[n, o, i, j] * w[o]
    return dxp[:, :, p:p + H, p:p + W], dw, g.sum(axis=(0, 2, 3))


def iq_encoder_ref(encoder, x):
    """The IQ encoder's forward as the paper draws it: every residual block,
    the last block's skip included, runs at every timestep; then GAP over
    time and the projection. Built from the public layers of ``encoder``
    (float64 parameters expected); returns the (B, branch_dim) Tensor."""
    h = Tensor(np.asarray(x, dtype=np.float64))
    for conv, skip in encoder.blocks:
        res = h if skip is None else skip(h)
        h = conv(h).relu() + res
    return encoder.proj(encoder.pool(h))


# ----------------------------------------------------------------------
# feature extraction: the direct formulas of the dsp passes. Each gives
# the same floating-point operations, in the same order, as the library's
# faster form, so the two must agree bitwise.
# ----------------------------------------------------------------------

def stft_gather_ref(x, window=128, hop=64):
    """Magnitude STFT with the frames gathered by a fancy index:
    (..., N) -> (..., window, n_frames)."""
    n_frames = 1 + (x.shape[-1] - window) // hop
    win = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(window) / window)
    idx = np.arange(window)[None, :] + hop * np.arange(n_frames)[:, None]
    return np.swapaxes(np.abs(np.fft.fft(x[..., idx] * win, axis=-1)), -1, -2)


def phase_increments_ref(x):
    """angle(x[n] * conj(x[n-1])), 0 where the product has zero magnitude."""
    inc = x[..., 1:] * np.conj(x[..., :-1])
    return np.where(np.abs(inc) > 0, np.angle(inc), 0.0)


def cfo_ref(x):
    """Accumulated phase increments, starting at 0."""
    inc = phase_increments_ref(x)
    return np.concatenate([np.zeros(x.shape[:-1] + (1,)), np.cumsum(inc, axis=-1)], axis=-1)


def unit_phasors_ref(z):
    """z / |z| by complex division, 0 where z = 0."""
    zmag = np.abs(z)
    return np.where(zmag > 0, z / np.where(zmag > 0, zmag, 1.0), 0.0)


def aoa_band_phase_ref(x, fs):
    """AoA columns 14 (central-band energy fraction, the band gathered by a
    boolean mask), 19-20 (circular mean and std of the phase difference to
    patch 0) and 21 (mean instantaneous frequency against patch 0) of
    (M, 4, N) samples, as {column: (M, 4) array}."""
    n = x.shape[-1]
    P = np.fft.fftshift(np.abs(np.fft.fft(x, axis=-1)) ** 2, axes=-1)
    f = (np.arange(n) - n // 2) * (fs / n)
    ptot = P.sum(axis=-1)
    band = P[..., np.abs(f) <= fs / 4].sum(axis=-1) / np.where(ptot > 0, ptot, 1.0)
    band[(np.abs(x) ** 2).sum(axis=-1) == 0] = 0.0

    z = x * np.conj(x[:, :1])
    count = (np.abs(z) > 0).sum(axis=-1)
    m = unit_phasors_ref(z).sum(axis=-1) / np.maximum(count, 1)
    m = np.where(count > 0, m, 1.0 + 0.0j)
    mean_if = phase_increments_ref(x).mean(axis=-1) * fs / (2.0 * np.pi)
    out = {14: band, 19: np.angle(m), 20: np.sqrt(-2.0 * np.log(np.clip(np.abs(m), 1e-12, 1.0))),
           21: mean_if - mean_if[:, :1]}
    for col in (19, 20, 21):
        out[col][:, 0] = 0.0
    return out


def iq_stats_ref(samples):
    """Per-channel mean and std of the stacked (M, 8, N) I/Q planes."""
    planes = np.stack([samples.real, samples.imag], axis=-2).reshape(len(samples), 8, -1)
    return planes.mean(axis=(0, 2)), planes.std(axis=(0, 2))


# ----------------------------------------------------------------------
# sigsim: the per-pose, per-path simulation that the chunked arrays replace
# ----------------------------------------------------------------------

def _cross2(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _segments_cross(p, q, a, b):
    """Strict proper intersection of open segments pq and ab."""
    d1, d2 = _cross2(a, b, p), _cross2(a, b, q)
    d3, d4 = _cross2(p, q, a), _cross2(p, q, b)
    return (d1 * d2 < 0) and (d3 * d4 < 0)


def _intersect_param(p, q, a, b):
    """Parameter t on pq and u on ab of the line intersection, or None if parallel."""
    d1, d2 = q - p, b - a
    denom = d1[0] * d2[1] - d1[1] * d2[0]
    if abs(denom) < 1e-12:
        return None
    w = a - p
    return (w[0] * d2[1] - w[1] * d2[0]) / denom, (w[0] * d1[1] - w[1] * d1[0]) / denom


def _mirror_point(p, a, b):
    d = b - a
    d = d / np.linalg.norm(d)
    return 2.0 * (a + d * ((p - a) @ d)) - p


def _ends(s):
    return np.array([s.x1, s.y1]), np.array([s.x2, s.y2])


def _transmission_gain(leg_p, leg_q, walls, exclude=None):
    gain = 1.0
    for w in walls:
        if w is not exclude and _segments_cross(leg_p, leg_q, *_ends(w)):
            gain *= 10.0 ** (-w.transmission_loss_db / 20.0)
    return gain


def paths_ref(scene, antenna, jammer):
    """[(kind, distance, gain, direction)]: the direct path, then one bounce
    per reflecting surface (reflectors, then walls), one surface at a time."""
    ant_xy, jam_xy = antenna[:2], jammer[:2]
    walls = list(scene.wall_segments)
    delta = jammer - antenna
    d_direct = float(np.linalg.norm(delta))
    out = [("direct", d_direct, _transmission_gain(ant_xy, jam_xy, walls), delta / d_direct)]
    for i, s in enumerate(list(scene.ambient_reflectors) + walls):
        a, b = _ends(s)
        if s.reflection_coeff <= 0.0 or _cross2(a, b, jam_xy) * _cross2(a, b, ant_xy) <= 0:
            continue
        img_xy = _mirror_point(jam_xy, a, b)
        hit = _intersect_param(ant_xy, img_xy, a, b)
        if hit is None or not (0.0 < hit[0] < 1.0 and 0.0 <= hit[1] <= 1.0):
            continue
        refl_xy = ant_xy + hit[0] * (img_xy - ant_xy)
        vec = np.array([img_xy[0], img_xy[1], jammer[2]]) - antenna
        dist = float(np.linalg.norm(vec))
        gain = s.reflection_coeff
        gain *= _transmission_gain(jam_xy, refl_xy, walls, exclude=s)
        gain *= _transmission_gain(refl_xy, ant_xy, walls, exclude=s)
        out.append((f"reflect:{i}", dist, gain, vec / dist))
    return out


def propagate_ref(scene, geometry, jammer, waveform, rng):
    """(4, n) samples: each path's delayed, steered waveform added in turn,
    then two (4, n) noise draws, real parts first."""
    from jamloc.sigsim import C_LIGHT
    antenna = np.asarray(scene.antenna_position, dtype=np.float64)
    jammer = np.asarray(jammer, dtype=np.float64)
    n, lam = waveform.shape[-1], geometry.wavelength
    paths = paths_ref(scene, antenna, jammer)
    out = np.zeros((4, n), dtype=np.complex128)
    for _, dist, gain, direction in paths:
        amp = (lam / (4.0 * np.pi * dist)) * gain
        if amp == 0.0:
            continue
        shift = int(round((dist - paths[0][1]) / C_LIGHT * scene.sample_rate))
        if shift >= n:
            continue
        delayed = np.concatenate([np.zeros(shift, dtype=waveform.dtype), waveform[: n - shift]])
        steer = np.exp(1j * (-2.0 * np.pi * (geometry.element_positions @ direction) / lam))
        out += (amp * np.exp(-2j * np.pi * dist / lam)) * steer[:, None] * delayed[None, :]
    if scene.noise_floor_dbm is not None:
        sigma = np.sqrt(10.0 ** (scene.noise_floor_dbm / 10.0) / 2.0)
        out += rng.normal(scale=sigma, size=(4, n)) + 1j * rng.normal(scale=sigma, size=(4, n))
    return out
