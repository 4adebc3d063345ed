"""Reference forms that only the tests use."""

import numpy as np

from swanopt.geometry import Placement, SystemParams, User, WaveguideLayout


def watts_to_dbm(watts):
    """Convert a power level from watts to dBm."""
    if watts <= 0:
        raise ValueError(f"power must be positive, got {watts}")
    return 10.0 * np.log10(watts) + 30.0


def freespace_gain(user: User, antenna_x, layout: WaveguideLayout, params: SystemParams):
    """Line-of-sight gain between a user and a radiating point at `antenna_x`.

    Magnitude sqrt(eta)/r and phase -k0*r for propagation distance r.
    `antenna_x` may be a scalar or an array of positions.
    """
    d_sq = layout.height_m**2 + user.y**2
    r = np.sqrt((user.x - np.asarray(antenna_x, dtype=float)) ** 2 + d_sq)
    return np.sqrt(params.eta) * np.exp(-1j * params.wavenumber * r) / r


def waveguide_gain(antenna_x, feed_x, params: SystemParams):
    """In-waveguide gain from the radiating point back to the feed.

    Magnitude 10^(-kappa*l/20) and phase -2*pi*l/lambda_g over in-guide
    length l = antenna_x - feed_x; exactly unit magnitude when kappa is 0.
    """
    ell = np.asarray(antenna_x, dtype=float) - feed_x
    if np.any(ell < 0):
        raise ValueError("antenna_x must not precede the feed point")
    amp = 10.0 ** (-params.kappa_db_per_m * ell / 20.0)
    return amp * np.exp(-2j * np.pi * ell / params.guided_wavelength_m)


def cascaded_gain(user: User, segment: int, antenna_x, layout: WaveguideLayout, params: SystemParams):
    """Product of in-waveguide and free-space gains for one segment's antenna."""
    lo, hi = layout.segment_interval(segment)
    x = np.asarray(antenna_x, dtype=float)
    if np.any(x < lo) or np.any(x > hi):
        raise ValueError(f"antenna position outside segment {segment} interval [{lo}, {hi}]")
    return waveguide_gain(x, lo, params) * freespace_gain(user, x, layout, params)


def effective_channel(placement: Placement, user: User, layout: WaveguideLayout, params: SystemParams) -> complex:
    """End-to-end coefficient of one user after segment aggregation.

    (1/sqrt(S)) * sum over active segments of e^{j theta_m} g_m.
    """
    if not placement.active:
        raise ValueError("placement has no active segments")
    total = 0.0 + 0.0j
    for m in placement.active:
        g = cascaded_gain(user, m, placement.positions[m], layout, params)
        total += np.exp(1j * placement.phases[m]) * g
    return complex(total / np.sqrt(placement.num_active))


def quadratic_objective(a: np.ndarray, v: np.ndarray) -> float:
    """Real value of the quadratic form v^T A v* for a unit-modulus vector v."""
    return float(np.real(np.dot(v, a @ np.conj(v))))


def element_update(a: np.ndarray, v: np.ndarray, m: int):
    """Optimal unit-modulus v[m] with all other entries held fixed.

    Maximizes the quadratic form's terms linear in v[m], whose coefficient is
    sum_{n != m} A[m, n] conj(v[n]); a zero coefficient leaves v[m] unchanged.
    The stacked AO kernel makes this update for a whole stack, with the same bits.
    """
    s = np.dot(a[m], np.conj(v)) - a[m, m] * np.conj(v[m])
    if s == 0:
        return v[m]
    return np.exp(-1j * np.angle(s))
