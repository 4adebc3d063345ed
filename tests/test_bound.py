"""Analytical bound machinery: splits, partial sums, closed form, rate bounds.

Frozen oracle values (term-by-term summation, independent of the library):
  f_exact(0.5, 3, 1, 9) = 1/sqrt(9.25) + 1/sqrt(11.25) + 1/sqrt(15.25)
                        = 0.8830141314764784
  f_integral(0.5, 1, 1, 9) = asinh(1/3) = 0.32745015023725843
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    User,
    bound_rate_per_user,
    cascaded_gain,
    effective_channel,
    empty_placement,
    f_exact_sum,
    fresh,
    params_28ghz,
    user_at,
    with_segment,
)

import swanopt.bound
from swanopt.bound import (
    ProjectionOutOfRangeError,
    exact_amplitude_bound,
    f_exact,
    f_integral,
    split_for_user,
    sum_rate_bound,
    user_gain_bound,
)
from swanopt.channel import cascaded_gain_matrix, placement_sum_rate
from swanopt.geometry import (
    Placement,
    UserSet,
    WaveguideLayout,
    build_centered_layout,
    sample_users,
)
from swanopt.optimize import greedy_hssa_type1, greedy_hssa_type2


class TestSplitForUser:
    def test_midpoint_of_middle_segment(self):
        lay = WaveguideLayout(3, 1.0, 3.0, start_x=-1.5)
        m_k, delta_minus, delta_plus = split_for_user(0.0, lay)
        assert (m_k, lay.num_segments - 1 - m_k) == (1, 1)
        assert delta_minus == pytest.approx(0.5) and delta_plus == pytest.approx(0.5)

    def test_left_edge(self):
        lay = WaveguideLayout(3, 1.0, 3.0, start_x=-1.5)
        m_k, delta_minus, _ = split_for_user(-1.5, lay)
        assert (m_k, delta_minus) == (0, 0.0)

    def test_interior_point(self):
        lay = WaveguideLayout(5, 1.0, 3.0, start_x=0.0)
        m_k, delta_minus, delta_plus = split_for_user(3.25, lay)
        assert (m_k, lay.num_segments - 1 - m_k) == (3, 1)
        assert delta_minus == pytest.approx(0.25) and delta_plus == pytest.approx(0.75)

    def test_shared_boundary_ties_to_lower_index(self):
        lay = WaveguideLayout(3, 1.0, 3.0, start_x=0.0)
        m_k, delta_minus, delta_plus = split_for_user(2.0, lay)
        assert m_k == 1
        assert delta_minus == pytest.approx(1.0) and delta_plus == pytest.approx(0.0)

    def test_counts_partition_the_layout(self):
        lay = build_centered_layout(9, 0.8, 3.0)
        rng = np.random.default_rng(3)
        for _ in range(40):
            x = float(rng.uniform(*lay.extent))
            m_k, delta_minus, delta_plus = split_for_user(x, lay)
            assert 0 <= m_k < 9 and lay.feed_x[m_k] <= x <= lay.segment_ends[m_k]
            assert delta_minus + delta_plus == pytest.approx(0.8, rel=1e-9)
            assert 0 <= delta_minus <= 0.8 and 0 <= delta_plus <= 0.8

    def test_projection_outside_extent_rejected(self):
        lay = build_centered_layout(3, 1.0, 3.0)
        with pytest.raises(ProjectionOutOfRangeError):
            split_for_user(1.6, lay)
        with pytest.raises(ProjectionOutOfRangeError):
            split_for_user(-1.6, lay)


def linear_scan_split(x, layout):
    """The split found by scanning the segments left to right (test oracle); a rounding gap gives offset 0."""
    L = layout.segment_length_m
    for m in range(layout.num_segments):
        if x <= layout.feed_x[m] + L:
            return m, max(x - layout.feed_x[m], 0.0), layout.feed_x[m] + L - x
    raise AssertionError("point right of the extent")


@st.composite
def layouts_with_points(draw):
    """A contiguous layout plus points on segment edges, on both extent ends and inside."""
    num_segments = draw(st.integers(1, 60))
    length = draw(st.floats(1e-3, 10.0))
    start = draw(st.floats(-100.0, 100.0))
    layout = WaveguideLayout(num_segments, length, 3.0, start)
    lo, hi = layout.extent
    edges = sorted(set(layout.feed_x) | {x + length for x in layout.feed_x})
    points = draw(st.lists(st.one_of(st.sampled_from(edges), st.floats(lo, hi)), max_size=12))
    return layout, [lo, hi, *points]


class TestSplitForUserOracle:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(layouts_with_points())
    def test_bisection_matches_linear_scan(self, case):
        layout, points = case
        for x in points:
            assert split_for_user(x, layout) == linear_scan_split(x, layout)


class TestLayoutRoundingGap:
    """Projections between a segment's rounded end and the next feed, which rounds an ulp or more above it."""

    def test_user_in_a_gap_gets_finite_bounds(self):
        layout = build_centered_layout(7, 0.3, 3.0)
        x = 0.14999999999999988
        assert layout.segment_ends[3] < x < layout.feed_x[4]
        users = UserSet(x=[x], y=[1.0], power_w=[1.0])
        params = params_28ghz()
        assert split_for_user(x, layout) == (4, 0.0, layout.segment_ends[4] - x)
        for rate in (exact_amplitude_bound(users, layout, params), sum_rate_bound(users, layout, params)):
            assert math.isfinite(rate) and rate > 0

    def test_every_gap_of_centered_layouts_splits_to_zero_offset(self):
        params = params_28ghz()
        gaps = 0
        for length in (0.1, 0.3, 0.7, 0.75, 0.8, 1.0):
            for num_segments in range(1, 121):
                layout = build_centered_layout(num_segments, length, 3.0)
                for m in range(num_segments - 1):
                    if layout.segment_ends[m] < layout.feed_x[m + 1]:
                        gaps += 1
                        x = float(np.nextafter(layout.segment_ends[m], np.inf))
                        assert split_for_user(x, layout)[:2] == (m + 1, 0.0)
                        users = UserSet(x=[x], y=[1.0], power_w=[1.0])
                        assert math.isfinite(exact_amplitude_bound(users, layout, params))
                        assert math.isfinite(sum_rate_bound(users, layout, params))
        assert gaps > 0


class TestPartialSums:
    def test_empty_sum_is_zero(self):
        assert f_exact(0.3, 0, 1.0, 9.0) == 0.0
        assert f_integral(0.7, 0, 1.0, 9.0) == 0.0
        # Both asinh limits overflow to -inf here, so the closed form alone would give NaN.
        assert f_integral(0.3e154, 0, 2e154, 4e-322) == 0.0
        cache = {}
        assert f_exact(0.3, 0, 1.0, 9.0, cache) == 0.0 and cache == {}
        assert f_exact(0.3, 3, 1.0, 9.0, cache) > 0.0 and len(cache) == 1
        assert f_exact(0.3, 0, 1.0, 9.0, cache) == 0.0

    def test_single_term_over_projection(self):
        assert f_exact(0.0, 1, 1.0, 9.0) == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_three_term_hand_sum(self):
        assert f_exact(0.5, 3, 1.0, 9.0) == pytest.approx(0.8830141314764784, rel=1e-14)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            f_exact(0.5, -1, 1.0, 9.0)
        with pytest.raises(ValueError):
            f_integral(0.5, -1, 1.0, 9.0)
        for delta, length, d_sq, message in ((0.5, 0.0, 9.0, "segment length"), (0.5, -1.0, 9.0, "segment length"),
                                             (0.5, 1.0, 0.0, "squared axis distance"),
                                             (0.5, 1.0, -9.0, "squared axis distance"),
                                             (math.nan, 1.0, 9.0, "edge distance"),
                                             (0.5, math.nan, 9.0, "segment length"),
                                             (0.5, 1.0, math.nan, "squared axis distance")):
            for f in (f_exact, f_integral):
                with pytest.raises(ValueError, match=message):
                    f(delta, 2, length, d_sq)

    def test_closed_form_single_segment(self):
        assert f_integral(0.5, 1, 1.0, 9.0) == pytest.approx(0.32745015023725843, rel=1e-14)
        # Midpoint-rule error against the exact single term stays below 1%.
        exact = f_exact(0.5, 1, 1.0, 9.0)
        assert abs(f_integral(0.5, 1, 1.0, 9.0) - exact) / exact < 0.01

    @pytest.mark.parametrize("d_sq,threshold", [(9.0, 0.02), (100.0, 0.005)])
    def test_closed_form_tracks_exact_sum(self, d_sq, threshold):
        for delta in (0.0, 0.25, 0.5, 0.75, 1.0):
            exact = f_exact(delta, 50, 1.0, d_sq)
            approx = f_integral(delta, 50, 1.0, d_sq)
            assert abs(approx - exact) / exact < threshold

    def test_exact_sum_nonincreasing_in_delta(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            n = int(rng.integers(1, 40))
            d1, d2 = sorted(rng.uniform(0, 1, size=2))
            assert f_exact(d1, n, 1.0, 9.0) >= f_exact(d2, n, 1.0, 9.0)

    def test_exact_sum_splits_at_any_index(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            n1 = int(rng.integers(0, 20))
            n2 = int(rng.integers(0, 20))
            delta = float(rng.uniform(0, 1))
            whole = f_exact(delta, n1 + n2, 1.0, 9.0)
            split = f_exact(delta, n1, 1.0, 9.0) + f_exact(delta + n1 * 1.0, n2, 1.0, 9.0)
            assert whole == pytest.approx(split, rel=1e-12)


def symmetric_split(num_segments):
    """(delta_minus, n_minus, delta_plus, n_plus) of a projection at the middle segment's midpoint."""
    left = (num_segments - 1) // 2
    return 0.5, left, 0.5, num_segments - 1 - left


class TestUserGainBound:
    def test_single_segment_reduces_to_projection_gain(self):
        eta = params_28ghz().eta
        assert user_gain_bound(0.4, 0, 0.6, 0, 1.0, 9.0, eta) == pytest.approx(eta / 9.0, rel=1e-14)

    def test_three_segment_symmetric_case(self):
        eta = params_28ghz().eta
        bracket = 1.0 / 3.0 + 2.0 * math.asinh(1.0 / 3.0)
        expected = eta / 3.0 * bracket**2
        assert user_gain_bound(*symmetric_split(3), 1.0, 9.0, eta) == pytest.approx(expected, rel=1e-14)

    def test_vanishes_for_huge_layouts(self):
        eta = params_28ghz().eta
        peak = max(user_gain_bound(*symmetric_split(m), 1.0, 9.0, eta) for m in range(1, 201))
        tail = user_gain_bound(*symmetric_split(10**6), 1.0, 9.0, eta)
        assert tail < 1e-3 * peak

    def test_below_single_segment_gain_once_large(self):
        eta = params_28ghz().eta
        g1 = user_gain_bound(*symmetric_split(1), 1.0, 9.0, eta)
        g4 = user_gain_bound(*symmetric_split(10**4), 1.0, 9.0, eta)
        g5 = user_gain_bound(*symmetric_split(10**5), 1.0, 9.0, eta)
        assert g5 < g4 < g1


class TestRateBounds:
    def setup_method(self):
        self.params = params_28ghz()

    def test_single_user_single_segment_rate(self):
        lay = build_centered_layout(1, 1.0, 3.0)
        users = UserSet(x=np.zeros(1), y=np.zeros(1), power_w=np.array([0.01]))
        assert sum_rate_bound(users, lay, self.params) == pytest.approx(9.657513317976857, rel=1e-12)
        assert exact_amplitude_bound(users, lay, self.params) == pytest.approx(9.657513317976857, rel=1e-12)

    def test_exact_bound_composes_from_cascaded_magnitudes(self):
        # Three segments, user centered: antennas at the projection and at the
        # two nearest segment edges; coherent combining of those magnitudes.
        lay = WaveguideLayout(3, 1.0, 3.0, start_x=-1.5)
        user = User(0.0, 0.0, 0.01)
        users = UserSet(x=np.zeros(1), y=np.zeros(1), power_w=np.array([0.01]))
        amps = (
            abs(cascaded_gain(user, 1, 0.0, lay, self.params))
            + abs(cascaded_gain(user, 0, -0.5, lay, self.params))
            + abs(cascaded_gain(user, 2, 0.5, lay, self.params))
        )
        expected = np.log2(1.0 + 0.01 * amps**2 / 3.0 / self.params.noise_power_w)
        assert exact_amplitude_bound(users, lay, self.params) == pytest.approx(expected, rel=1e-12)
        assert sum_rate_bound(users, lay, self.params) == pytest.approx(expected, rel=0.01)

    def test_exact_and_integral_bounds_stay_close(self):
        users = sample_users(4, 20, 20, 0.01, 17)
        for m in (20, 40, 80, 200):
            lay = build_centered_layout(m, 1.0, 3.0)
            exact = exact_amplitude_bound(users, lay, self.params)
            approx = sum_rate_bound(users, lay, self.params)
            assert abs(exact - approx) / exact < 0.05

    def test_dominates_random_feasible_placements(self):
        rng = np.random.default_rng(23)
        lay = build_centered_layout(12, 1.0, 3.0)
        users = sample_users(3, 12, 20, 0.01, 29)
        cap_integral = sum_rate_bound(users, lay, self.params)
        for _ in range(40):
            size = int(rng.integers(1, 13))
            segments = rng.choice(12, size=size, replace=False)
            pl = empty_placement()
            for m in sorted(int(s) for s in segments):
                lo, hi = lay.segment_interval(m)
                pl = with_segment(pl, m, float(rng.uniform(lo, hi)), phase=float(rng.uniform(0, 2 * np.pi)))
            pl.validate(lay, self.params)
            channels = [effective_channel(pl, user_at(users, k), lay, self.params) for k in range(3)]
            achieved = np.log2(1.0 + sum(
                users.power_w[k] * abs(channels[k]) ** 2 for k in range(3)
            ) / self.params.noise_power_w)
            assert achieved <= exact_amplitude_bound(users, lay, self.params, level=pl.num_active)
            if pl.num_active == 12:
                assert achieved <= cap_integral

    def test_propagates_out_of_range(self):
        lay = build_centered_layout(2, 1.0, 3.0)
        users = UserSet(x=np.array([5.0]), y=np.zeros(1), power_w=np.array([0.01]))
        with pytest.raises(ProjectionOutOfRangeError):
            sum_rate_bound(users, lay, self.params)

    def test_each_bound_splits_every_user_once_by_module_name(self, monkeypatch):
        # Both bounds look the split up as `bound.split_for_user`, once per user.
        calls = []

        def counting(x, layout):
            calls.append(x)
            return split_for_user(x, layout)

        monkeypatch.setattr(swanopt.bound, "split_for_user", counting)
        lay = build_centered_layout(30, 1.0, 3.0)
        users = sample_users(5, 20, 20, 0.01, 41)
        exact_amplitude_bound(users, lay, self.params)
        assert calls == users.x.tolist()
        calls.clear()
        sum_rate_bound(users, lay, self.params)
        assert calls == users.x.tolist()

    def test_activated_level_triangle_bound(self):
        # For any placement, |h|^2 is capped by the coherent-combining value
        # (1/S)(sum of |g|)^2 over the activated set.
        rng = np.random.default_rng(31)
        lay = build_centered_layout(6, 1.0, 3.0)
        user = User(0.4, 1.5, 0.01)
        for _ in range(20):
            pl = empty_placement()
            for m in range(6):
                lo, hi = lay.segment_interval(m)
                pl = with_segment(pl, m, float(rng.uniform(lo, hi)), phase=float(rng.uniform(0, 2 * np.pi)))
            amps = sum(abs(cascaded_gain(user, m, x, lay, self.params)) for m, x in zip(pl.active, pl.positions))
            h = effective_channel(pl, user, lay, self.params)
            assert abs(h) ** 2 <= (amps**2 / pl.num_active) * (1 + 1e-12)


@st.composite
def layouts_with_users(draw, max_segments=150, max_users=8):
    """A contiguous layout and users on shared segment edges, on both extent ends or inside."""
    num_segments = draw(st.integers(1, max_segments))
    length = draw(st.floats(0.05, 10.0))
    start = draw(st.floats(-50.0, 50.0))
    layout = WaveguideLayout(num_segments, length, draw(st.floats(0.2, 10.0)), start)
    lo, hi = layout.extent
    edges = [lo, hi, *(x + length for x in layout.feed_x[:-1])]
    num_users = draw(st.integers(1, max_users))
    x = draw(st.lists(st.one_of(st.sampled_from(edges), st.floats(lo, hi)), min_size=num_users, max_size=num_users))
    y = draw(st.lists(st.floats(-20.0, 20.0), min_size=num_users, max_size=num_users))
    power = draw(st.lists(st.floats(1e-4, 1.0), min_size=num_users, max_size=num_users))
    return layout, UserSet(x=np.array(x), y=np.array(y), power_w=np.array(power))


class TestLeanKernelBits:
    """The in-place sum and the plain-float bound loop give the oracles' bits."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.floats(0.0, 20.0), st.integers(0, 240), st.floats(1e-3, 10.0), st.floats(1e-3, 1e3))
    def test_f_exact_matches_expression(self, delta, n, length, d_sq):
        assert f_exact(delta, n, length, d_sq).hex() == f_exact_sum(delta, n, length, d_sq).hex()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(layouts_with_users())
    def test_bound_rates_match_per_user_loop(self, case):
        layout, users = case
        params = params_28ghz()
        exact = exact_amplitude_bound(users, layout, params)
        assert exact.hex() == bound_rate_per_user(users, layout, params, f_exact_sum).hex()
        assert exact.hex() == exact_amplitude_bound(users, layout, params, level=layout.num_segments).hex()
        integral = sum_rate_bound(users, layout, params)
        assert integral.hex() == bound_rate_per_user(users, layout, params, f_integral).hex()


class TestExactBoundTermCache:
    """A user set's cache, shared by every bound call on it, gives the bits of calls on fresh user sets."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        length=st.sampled_from([1.0, 0.3]),
        # segment counts in any order, the first one repeated last
        counts=st.lists(st.integers(1, 40), min_size=1, max_size=6).map(lambda c: [*c, c[0]]),
        num_users=st.integers(1, 3),
        seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3),
        data=st.data(),
    )
    def test_shared_cache_matches_uncached_bounds(self, length, counts, num_users, seeds, data):
        params = params_28ghz()
        narrowest = min(counts) * length
        for seed in seeds:
            # Inside the narrowest layout's extent, so inside every layout's.
            users = sample_users(num_users, narrowest, 20.0, 0.01, seed)
            # A longer layout first leaves entries longer than any later sum needs.
            for m in (3 * max(counts), *counts):
                layout = build_centered_layout(m, length, 3.0)
                exact = exact_amplitude_bound(users, layout, params)
                assert exact.hex() == bound_rate_per_user(users, layout, params, f_exact_sum).hex()
                level = data.draw(st.integers(1, m))
                assert (exact_amplitude_bound(users, layout, params, level).hex()
                        == exact_amplitude_bound(fresh(users), layout, params, level).hex())
            assert users.cache and all(key[0] == "f_exact" for key in users.cache)

    def test_negative_edge_distance_still_raises(self):
        cache = {}
        assert f_exact(0.25, 4, 1.0, 9.0, cache) == f_exact(0.25, 4, 1.0, 9.0)
        with pytest.raises(ValueError, match="edge distance"):
            f_exact(-1e-10, 2, 1.0, 9.0, cache)
        assert list(cache) == [("f_exact", 0.25, 1.0, 9.0)]


def nearest_segments_bound(users, layout, params, level):
    """Level bound from every segment's nearest point, summing each user's `level` largest amplitudes."""
    total = 0.0
    for k in range(users.num_users):
        feeds = np.array(layout.feed_x)
        gap = np.maximum(np.maximum(feeds - users.x[k], users.x[k] - feeds - layout.segment_length_m), 0.0)
        d_sq = layout.height_m**2 + users.y[k] ** 2
        amplitudes = np.sort(1.0 / np.sqrt(gap**2 + d_sq))[::-1]
        total += users.power_w[k] * params.eta / level * np.sum(amplitudes[:level]) ** 2
    return math.log2(1.0 + total / params.noise_power_w)


class TestActivationLevelBound:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(layouts_with_users(max_segments=40), st.data())
    def test_sums_each_users_nearest_segments(self, case, data):
        layout, users = case
        params = params_28ghz()
        level = data.draw(st.integers(1, layout.num_segments))
        expected = nearest_segments_bound(users, layout, params, level)
        assert exact_amplitude_bound(users, layout, params, level) == pytest.approx(expected, rel=1e-12)

    def test_level_outside_layout_rejected(self):
        lay = build_centered_layout(3, 1.0, 3.0)
        users = UserSet(x=np.zeros(1), y=np.zeros(1), power_w=np.array([0.01]))
        for level in (0, 4):
            with pytest.raises(ValueError):
                exact_amplitude_bound(users, lay, params_28ghz(), level)


def attained(rate, bound):
    # A single user with its antenna exactly at its projection attains the
    # bound; the channel path and the bound path round differently there.
    return rate <= bound * (1.0 + 1e-12)


class TestBoundDominatesFeasibleRates:
    """C4 as a property: no feasible placement beats the exact bound at its activation level."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(layouts_with_users(max_segments=12), st.floats(0.0, 3.0), st.floats(1e-3, 2.0),
           st.integers(2, 24), st.data())
    def test_random_placements_and_greedy_best_levels(self, case, kappa, spacing_ratio, grid_points, data):
        layout, users = case
        params = params_28ghz(kappa_db_per_m=kappa, min_spacing_m=spacing_ratio * layout.segment_length_m)
        segments = data.draw(st.permutations(range(layout.num_segments)))
        segments = segments[:data.draw(st.integers(1, layout.num_segments))]
        placement = empty_placement()
        for m in segments:
            lo, hi = layout.segment_interval(m)
            x = lo + data.draw(st.floats(0.0, 1.0)) * (hi - lo)
            taken = np.array(placement.positions)
            if taken.size == 0 or np.min(np.abs(taken - x)) >= params.min_spacing_m:
                placement = with_segment(placement, m, min(x, hi), phase=data.draw(st.floats(0.0, 2 * np.pi)))
        placement.validate(layout, params)
        # Phases aligned on the first user's gains bring its |h|^2 to the coherent value.
        aligned = np.mod(-np.angle(cascaded_gain_matrix(users, placement, layout, params)[0]), 2 * np.pi)
        coherent = Placement(placement.active, placement.positions, aligned)
        for pl in (placement, coherent):
            bound = exact_amplitude_bound(users, layout, params, pl.num_active)
            assert attained(placement_sum_rate(users, pl, layout, params), bound)
        for trace in (greedy_hssa_type1(users, layout, params, grid_points),
                      greedy_hssa_type2(users, layout, params, grid_points)):
            best = trace.best.placement
            best.validate(layout, params)
            bound = exact_amplitude_bound(users, layout, params, best.num_active)
            assert attained(trace.best_rate, bound)
            assert attained(placement_sum_rate(users, best, layout, params), bound)
