"""Analytical sum-rate upper bound and its closed-form approximation.

The per-user gain bound assumes ideal coherent combining with every antenna
at the closest admissible point to the user's projection onto the waveguide.
The partial sums of inverse distances to consecutive segment edges admit a
closed form through the inverse hyperbolic sine; that form is evaluated with
a signed lower limit (asinh is odd), which keeps the relative error within
the documented thresholds for every edge offset, including offsets smaller
than half a segment. Below full activation, each user's bound counts only
its nearest segments, as many as are active.

The exact bound can keep its inverse-distance terms in a `cache=` dict and
sum prefixes of them, since a user's edge offsets recur from one layout to
the next; apart from filling that dict, the functions are pure.
"""

import math
from bisect import bisect_left
from functools import partial

import numpy as np

from .geometry import SystemParams, UserSet, WaveguideLayout


class ProjectionOutOfRangeError(ValueError):
    """A user's projection falls outside the waveguide extent."""


def split_for_user(x: float, layout: WaveguideLayout) -> tuple[int, float, float]:
    """Locate the segment containing a user projection x and its edge offsets.

    Returns (m_k, delta_minus, delta_plus): the 0-based index of the segment
    containing x (so m_k segments lie to its left and M - 1 - m_k to its
    right) and the distances [m] from x to that segment's left and right
    edges, which sum to the segment length. Ties at shared segment
    boundaries resolve to the lower segment index, and a projection in a
    rounding gap before a feed gets delta_minus = 0. Raises
    ProjectionOutOfRangeError when x is outside the waveguide extent.
    """
    lo, hi = layout.extent
    if not lo <= x <= hi:
        raise ProjectionOutOfRangeError(f"user projection x={x} outside waveguide extent [{lo}, {hi}]")
    ends = layout.segment_ends
    m_k = bisect_left(ends, x)
    delta_minus = x - layout.feed_x[m_k]
    if delta_minus < 0.0:  # a comparison, not max(): bound sweeps split every user of every layout
        delta_minus = 0.0
    return m_k, delta_minus, ends[m_k] - x


def _inverse_distances(delta: float, n: int, length: float, d_sq: float) -> np.ndarray:
    """The n terms 1 / sqrt((delta + length * i)**2 + d_sq), i = 0..n-1.

    One buffer, filled in place with the expression's operations in its
    order, so with its bits.
    """
    buf = np.arange(n, dtype=float)
    buf *= length
    buf += delta
    buf *= buf
    buf += d_sq
    np.sqrt(buf, out=buf)
    np.divide(1.0, buf, out=buf)
    return buf


def f_exact(delta: float, n: int, length: float, d_sq: float, cache=None) -> float:
    """Sum over n consecutive segments of 1/sqrt((delta + (i-1)*L)^2 + d_sq).

    `delta` is the distance from the projection to the nearest edge of the
    first counted segment; the sum is 0 for n = 0. A `cache` dict keeps the
    terms of each (delta, L, d_sq), and later sums reduce a prefix of them,
    which has the bits of a fresh n-term buffer, as the terms are elementwise.
    """
    _check_f_args(delta, n, length, d_sq)
    if n == 0:
        return 0.0
    cache = {} if cache is None else cache
    key = ("f_exact", delta, length, d_sq)
    terms = cache.get(key, ())
    if len(terms) < n:  # at least twice the old entry, so that a growing sweep recomputes rarely
        terms = cache[key] = _inverse_distances(delta, max(n, 2 * len(terms)), length, d_sq)
    return float(np.add.reduce(terms[:n]))


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


def _nearest(n, delta_minus, delta_plus, n_minus, n_plus) -> tuple[int, int]:
    """How many of the n segments nearest a projection lie left and right of its own.

    Edge distances alternate between the sides, starting with the nearer
    edge (the two offsets sum to one segment length), until a side runs out.
    """
    left = max(min(n_minus, (n + (delta_minus <= delta_plus)) // 2), n - n_plus)
    return left, n - left


def user_gain_bound(delta_minus: float, n_minus: int, delta_plus: float, n_plus: int, length: float, d_sq: float,
                    eta: float, partial_sum=f_integral) -> float:
    """Upper bound on a user's effective channel gain |h|^2 under ideal combining.

    (eta / S) * [1/sqrt(d_sq) + F(delta_minus, n_minus) + F(delta_plus, n_plus)]^2
    over S = n_minus + n_plus + 1 segments, with the partial sums
    F = `partial_sum`: `f_integral` or `f_exact`. Reduces to the
    single-antenna projection gain eta/d_sq at S = 1.
    """
    bracket = (
        1.0 / math.sqrt(d_sq)
        + partial_sum(delta_minus, n_minus, length, d_sq)
        + partial_sum(delta_plus, n_plus, length, d_sq)
    )
    return eta / (n_minus + n_plus + 1) * bracket * bracket


def _bound_rate(users: UserSet, layout: WaveguideLayout, params: SystemParams, partial_sum, level) -> float:
    num_segments, length, eta = layout.num_segments, layout.segment_length_m, params.eta
    if level is None:
        level = num_segments
    elif not 1 <= level <= num_segments:
        raise ValueError(f"activation level must be in 1..{num_segments}, got {level}")
    h_sq = layout.height_m**2
    total = 0.0
    for x, y, power in zip(users.x.tolist(), users.y.tolist(), users.power_w.tolist()):
        m_k, delta_minus, delta_plus = split_for_user(x, layout)
        n_minus, n_plus = _nearest(level - 1, delta_minus, delta_plus, m_k, num_segments - 1 - m_k)
        # y * y, as NumPy squares an array
        total += power * user_gain_bound(delta_minus, n_minus, delta_plus, n_plus, length, h_sq + y * y, eta,
                                         partial_sum)
    return float(np.log2(1.0 + total / params.noise_power_w))


def sum_rate_bound(users: UserSet, layout: WaveguideLayout, params: SystemParams) -> float:
    """Sum-rate upper bound log2(1 + sum_k P_k G_k / sigma^2) via the closed form."""
    return _bound_rate(users, layout, params, f_integral, None)


def exact_amplitude_bound(users: UserSet, layout: WaveguideLayout, params: SystemParams,
                          level: int | None = None, cache=None) -> float:
    """Sum-rate upper bound evaluated with the exact amplitude summation.

    Places every antenna at the closest point to the user projection within
    its segment and combines the amplitudes coherently; this is the exact
    counterpart that the closed form approximates. It bounds the rate of
    every placement that activates `level` segments (all M by default): each
    user's gain is capped by its `level` nearest segments, which is the
    full-activation value only at level M. A placement of fewer segments can
    beat the level-M value once M is past the best activation level.
    Any calls may share one `cache` dict of partial-sum terms (see `f_exact`).
    """
    return _bound_rate(users, layout, params, partial(f_exact, cache=cache), level)
