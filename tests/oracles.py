"""Reference forms that only the tests use."""

import numpy as np

from swanopt.bound import split_for_user, user_gain_bound
from swanopt.geometry import Placement, SystemParams, User, UserSet, WaveguideLayout


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


def empty_placement() -> Placement:
    """A placement with no active segment."""
    return Placement(active=(), positions={}, phases={})


def with_segment(placement: Placement, segment: int, position: float, phase: float = 0.0) -> Placement:
    """Return a new placement with one more activated segment."""
    if segment in placement.positions:
        raise ValueError(f"segment {segment} is already active")
    return Placement(
        active=placement.active + (segment,),
        positions={**placement.positions, segment: float(position)},
        phases={**placement.phases, segment: float(phase)},
    )


def f_exact_sum(delta: float, n: int, length: float, d_sq: float) -> float:
    """The exact partial sum of `bound.f_exact` as one NumPy expression; 0 for n = 0."""
    if n == 0:
        return 0.0
    return float(np.sum(1.0 / np.sqrt((delta + length * np.arange(n)) ** 2 + d_sq)))


def bound_rate_per_user(users: UserSet, layout: WaveguideLayout, params: SystemParams, partial_sum) -> float:
    """Full-activation sum-rate bound built user by user from `split_for_user` and `user_gain_bound`."""
    total = 0.0
    d_sq = users.dist_sq_to_axis(layout.height_m)
    for k in range(users.num_users):
        split = split_for_user(users[k], layout)
        gain = user_gain_bound(split, layout.num_segments, layout.segment_length_m, float(d_sq[k]), params.eta,
                               partial_sum)
        total += float(users.power_w[k]) * gain
    return float(np.log2(1.0 + total / params.noise_power_w))
