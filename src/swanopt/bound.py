"""Analytical sum-rate upper bound and its closed-form approximation.

The per-user gain bound assumes ideal coherent combining with every antenna
at the closest admissible point to the user's projection onto the waveguide.
The partial sums of inverse distances to consecutive segment edges admit a
closed form through the inverse hyperbolic sine; that form is evaluated with
a signed lower limit (asinh is odd), which keeps the relative error within
the documented thresholds for every edge offset, including offsets smaller
than half a segment.

Pure functions throughout; safe for arbitrary parallel invocation.
"""

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .geometry import SystemParams, User, UserSet, WaveguideLayout


class ProjectionOutOfRangeError(ValueError):
    """A user's projection falls outside the waveguide extent."""


@dataclass(frozen=True)
class SegmentSplit:
    """How a user's projection divides the layout.

    `m_k` is the 0-based index of the segment containing the projection,
    `M_minus`/`M_plus` count the segments strictly to its left/right, and
    `delta_minus`/`delta_plus` are the distances [m] from the projection to
    its segment's left and right edges (they sum to the segment length).
    """

    m_k: int
    M_minus: int
    M_plus: int
    delta_minus: float
    delta_plus: float

    def __post_init__(self):
        if self.M_minus < 0 or self.M_plus < 0:
            raise ValueError("side counts must be nonnegative")
        if self.delta_minus < 0 or self.delta_plus < 0:
            raise ValueError("edge distances must be nonnegative")


def split_for_user(user: User, layout: WaveguideLayout) -> SegmentSplit:
    """Locate the segment containing the user projection and the edge offsets.

    Ties at shared segment boundaries resolve to the lower segment index.
    Raises ProjectionOutOfRangeError when the projection is outside the
    waveguide extent.
    """
    lo, hi = layout.extent
    if not lo <= user.x <= hi:
        raise ProjectionOutOfRangeError(
            f"user projection x={user.x} outside waveguide extent [{lo}, {hi}]"
        )
    ends = layout.segment_ends
    m_k = bisect_left(ends, user.x)
    return SegmentSplit(
        m_k=m_k,
        M_minus=m_k,
        M_plus=layout.num_segments - 1 - m_k,
        delta_minus=user.x - layout.feed_x[m_k],
        delta_plus=ends[m_k] - user.x,
    )


def f_exact(delta: float, n: int, length: float, d_sq: float) -> float:
    """Sum over n consecutive segments of 1/sqrt((delta + (i-1)*L)^2 + d_sq).

    `delta` is the distance from the projection to the nearest edge of the
    first counted segment; the sum is 0 for n = 0.
    """
    _check_f_args(delta, n, length, d_sq)
    if n == 0:
        return 0.0
    offsets = delta + length * np.arange(n)
    return float(np.sum(1.0 / np.sqrt(offsets**2 + d_sq)))


def f_integral(delta: float, n: int, length: float, d_sq: float) -> float:
    """Closed-form midpoint-rule approximation of `f_exact`.

    (1/L) * [asinh((delta + (n - 1/2) L)/sqrt(d_sq))
             - asinh((delta - L/2)/sqrt(d_sq))], and 0 for n = 0.
    The lower limit is signed rather than clamped at the origin so the first
    midpoint interval is always covered in full.
    """
    _check_f_args(delta, n, length, d_sq)
    if n == 0:
        return 0.0
    root = math.sqrt(d_sq)
    hi = (delta + (n - 0.5) * length) / root
    lo = (delta - 0.5 * length) / root
    return (math.asinh(hi) - math.asinh(lo)) / length


def _check_f_args(delta, n, length, d_sq):
    if n < 0:
        raise ValueError("segment count must be nonnegative")
    if delta < 0:
        raise ValueError("edge distance must be nonnegative")
    if length <= 0:
        raise ValueError("segment length must be positive")
    if d_sq <= 0:
        raise ValueError("squared axis distance must be positive")


def user_gain_bound(split: SegmentSplit, num_segments: int, length: float, d_sq: float, eta: float,
                    partial_sum=f_integral) -> float:
    """Upper bound on a user's effective channel gain |h|^2 under ideal combining.

    (eta / M) * [1/sqrt(d_sq) + F(delta_minus, M_minus) + F(delta_plus, M_plus)]^2
    with the partial sums F = `partial_sum`: `f_integral` or `f_exact`.
    Reduces to the single-antenna projection gain eta/d_sq at M = 1.
    """
    if num_segments != split.M_minus + split.M_plus + 1:
        raise ValueError("num_segments inconsistent with the split counts")
    bracket = (
        1.0 / math.sqrt(d_sq)
        + partial_sum(split.delta_minus, split.M_minus, length, d_sq)
        + partial_sum(split.delta_plus, split.M_plus, length, d_sq)
    )
    return eta / num_segments * bracket * bracket


def _bound_rate(users: UserSet, layout: WaveguideLayout, params: SystemParams, partial_sum) -> float:
    total = 0.0
    d_sq = users.dist_sq_to_axis(layout.height_m)
    num_segments, length, eta = layout.num_segments, layout.segment_length_m, params.eta
    for k in range(users.num_users):
        split = split_for_user(users[k], layout)
        gain = user_gain_bound(split, num_segments, length, float(d_sq[k]), eta, partial_sum)
        total += float(users.power_w[k]) * gain
    return float(np.log2(1.0 + total / params.noise_power_w))


def sum_rate_bound(users: UserSet, layout: WaveguideLayout, params: SystemParams) -> float:
    """Sum-rate upper bound log2(1 + sum_k P_k G_k / sigma^2) via the closed form."""
    return _bound_rate(users, layout, params, f_integral)


def exact_amplitude_bound(users: UserSet, layout: WaveguideLayout, params: SystemParams) -> float:
    """Sum-rate upper bound evaluated with the exact amplitude summation.

    Places every antenna at the closest point to the user projection within
    its segment and combines the amplitudes coherently; this is the exact
    counterpart that the closed form approximates.
    """
    return _bound_rate(users, layout, params, f_exact)
