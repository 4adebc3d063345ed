"""Channel coefficients and the achievable uplink sum-rate.

All gains are complex amplitude ratios. A user's end-to-end coefficient
aggregates one cascaded gain per activated segment and carries a 1/sqrt(S)
factor for the receiver noise accumulated by analog combining.

Everything here is a pure function of immutable inputs; internal phase
arithmetic keeps full precision and is only reduced mod 2*pi implicitly by
the complex exponential.
"""

import numpy as np

from .geometry import Placement, SystemParams, UserSet, WaveguideLayout


def segment_gains(users: UserSet, segment: int, antenna_x, layout: WaveguideLayout, params: SystemParams):
    """Cascaded gains, shape (K, Q), of every user to Q positions within one segment.

    A scalar `antenna_x` counts as Q = 1. This is the optimizers' vectorized workhorse.
    """
    lo, hi = layout.segment_interval(segment)
    x = np.atleast_1d(np.asarray(antenna_x, dtype=float))
    if not np.all((lo <= x) & (x <= hi)):  # also false for NaN
        raise ValueError(f"antenna position outside segment {segment} interval [{lo}, {hi}]")
    d_sq = users.dist_sq_to_axis(layout.height_m)
    r = np.sqrt((users.x[:, None] - x[None, :]) ** 2 + d_sq[:, None])
    g_out = np.sqrt(params.eta) * np.exp(-1j * params.wavenumber * r) / r
    ell = x - lo
    g_in = 10.0 ** (-params.kappa_db_per_m * ell / 20.0) * np.exp(-2j * np.pi * ell / params.guided_wavelength_m)
    return g_in[None, :] * g_out


def cascaded_gain_matrix(users: UserSet, placement: Placement, layout: WaveguideLayout, params: SystemParams):
    """(K, S) matrix of cascaded gains, columns in placement activation order."""
    if not placement.active:
        raise ValueError("placement has no active segments")
    cols = [segment_gains(users, m, x, layout, params) for m, x in zip(placement.active, placement.positions)]
    return np.concatenate(cols, axis=1)


def sum_rate(channels, users: UserSet, params: SystemParams) -> float:
    """Achievable uplink sum-rate log2(1 + sum_k P_k |h_k|^2 / sigma^2) [bits/s/Hz]."""
    h = np.asarray(channels)
    if h.shape != (users.num_users,):
        raise ValueError("need exactly one channel coefficient per user")
    snr = float(np.sum(users.power_w * np.abs(h) ** 2) / params.noise_power_w)
    return float(np.log2(1.0 + snr))


def placement_sum_rate(users: UserSet, placement: Placement, layout: WaveguideLayout, params: SystemParams) -> float:
    """Sum-rate achieved by a placement, vectorized over users."""
    g = cascaded_gain_matrix(users, placement, layout, params)
    v = np.exp(1j * np.array(placement.phases))
    return sum_rate(g @ v / np.sqrt(placement.num_active), users, params)
