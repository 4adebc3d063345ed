"""Geometry: parameters, layouts, user sampling, placements."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import empty_placement, params_28ghz, spacing_violated, watts_to_dbm, with_segment

from swanopt.geometry import (
    SPEED_OF_LIGHT_M_S,
    Placement,
    SystemParams,
    UserSet,
    WaveguideLayout,
    build_centered_layout,
    dbm_to_watts,
    sample_users,
    uniform_draws,
)


class TestSystemParams:
    def test_wavelength_times_frequency_is_c(self):
        p = params_28ghz()
        assert p.wavelength_m * p.carrier_freq_hz == pytest.approx(SPEED_OF_LIGHT_M_S, rel=1e-12)

    def test_guided_wavelength(self):
        p = params_28ghz()
        assert p.guided_wavelength_m == p.wavelength_m / 1.4

    def test_eta_positive_and_matches_alternative_form(self):
        # Independent formulation: eta = (wavelength / 4 pi)^2.
        p = params_28ghz()
        assert p.eta > 0
        assert p.eta == pytest.approx((p.wavelength_m / (4 * np.pi)) ** 2, rel=1e-12)

    def test_wavenumber(self):
        p = params_28ghz()
        assert p.wavenumber == pytest.approx(2 * np.pi * p.carrier_freq_hz / SPEED_OF_LIGHT_M_S, rel=1e-12)

    def test_min_spacing_defaults_to_half_wavelength(self):
        p = params_28ghz()
        assert p.min_spacing_m == p.wavelength_m / 2
        q = params_28ghz(min_spacing_m=0.25)
        assert q.min_spacing_m == 0.25

    @pytest.mark.parametrize("kw", [
        {"carrier_freq_hz": 0.0},
        {"carrier_freq_hz": -1.0},
        {"n_eff": 0.0},
        {"noise_power_w": 0.0},
        {"kappa_db_per_m": -0.1},
        {"min_spacing_m": 0.0},
        {"min_spacing_m": np.nan},  # every spacing comparison with NaN is false
        {"min_spacing_m": np.inf},
        *({name: bad} for name in ("carrier_freq_hz", "n_eff", "noise_power_w", "kappa_db_per_m")
          for bad in (np.nan, np.inf)),
    ])
    def test_rejects_bad_arguments(self, kw):
        with pytest.raises(ValueError, match=f"{next(iter(kw))} must be .*, got {next(iter(kw.values()))}"):
            params_28ghz(**kw)

    @pytest.mark.parametrize("carrier_freq_hz, n_eff, key, quantity", [
        (1e-160, 1.4, "carrier_freq_hz", "free-space gain"),  # eta overflows to inf
        (1e300, 1.4, "carrier_freq_hz", "free-space gain"),  # carrier_freq_hz**2 raises OverflowError
        (1e-310, 1.4, "carrier_freq_hz", "free-space wavelength"),  # c / f overflows to inf
        (1e300, 1e40, "n_eff", "guided wavelength"),  # underflows to 0
        (1e-150, 1e-160, "n_eff", "guided wavelength"),  # overflows to inf
    ])
    def test_rejects_inputs_whose_derived_quantities_leave_the_doubles(self, carrier_freq_hz, n_eff, key, quantity):
        value = carrier_freq_hz if key == "carrier_freq_hz" else n_eff
        with pytest.raises(ValueError, match=re.escape(f"{key} = {value:.6g} is out of range: the {quantity}")):
            SystemParams(carrier_freq_hz, n_eff, 1e-12)


class TestLayout:
    def test_single_segment_centered(self):
        lay = build_centered_layout(1, 1.0, 3.0)
        assert lay.feed_x == (-0.5,)

    def test_four_segments_centered(self):
        lay = build_centered_layout(4, 1.0, 3.0)
        assert lay.feed_x == (-2.0, -1.0, 0.0, 1.0)

    def test_twenty_segments_cover_region(self):
        lay = WaveguideLayout(20, 1.0, 3.0, start_x=0.0)
        assert lay.feed_x == tuple(float(i) for i in range(20))
        lo, hi = lay.extent
        assert (lo, hi) == (0.0, 20.0)

    @pytest.mark.parametrize("m", [1, 2, 3, 7, 117, 10_000])
    def test_invariants_across_sizes(self, m):
        lay = build_centered_layout(m, 0.75, 2.0)
        assert lay.num_segments == m
        diffs = np.diff(lay.feed_x)
        assert np.all(diffs > 0)
        assert np.allclose(diffs, 0.75, rtol=1e-9)
        lo, hi = lay.extent
        assert hi - lo == pytest.approx(m * 0.75, rel=1e-9)

    @pytest.mark.parametrize("segment", [-2, -1, 4, 5])
    def test_segment_interval_rejects_indices_outside_the_layout(self, segment):
        lay = build_centered_layout(4, 1.0, 3.0)
        assert lay.segment_interval(3) == (1.0, 2.0)
        with pytest.raises(ValueError, match=f"segment index {segment} outside layout of 4 segments"):
            lay.segment_interval(segment)

    @pytest.mark.parametrize("kw", [
        dict(num_segments=0, segment_length_m=1.0, height_m=3.0),
        dict(num_segments=2, segment_length_m=0.0, height_m=3.0),
        dict(num_segments=2, segment_length_m=1.0, height_m=-3.0),
    ])
    def test_rejects_bad_arguments(self, kw):
        with pytest.raises(ValueError):
            build_centered_layout(**kw)

    @pytest.mark.parametrize("key", ["segment_length_m", "height_m", "start_x"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_values(self, key, bad):
        # A NaN length or start made the extent (nan, nan), and an infinite length (nan, inf).
        kw = {"num_segments": 2, "segment_length_m": 1.0, "height_m": 3.0, "start_x": 0.0, key: bad}
        with pytest.raises(ValueError, match=f"{key} must be .*finite, got {bad}"):
            WaveguideLayout(**kw)


class TestSampleUsers:
    def test_deterministic_given_seed(self):
        a = sample_users(4, 20, 20, 0.01, 1234)
        b = sample_users(4, 20, 20, 0.01, 1234)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
        assert np.array_equal(a.power_w, b.power_w)

    def test_degenerate_region_pins_user_to_center(self):
        us = sample_users(1, 1e-4, 1e-4, 0.01, 7)
        assert abs(us.x[0]) <= 5e-5 and abs(us.y[0]) <= 5e-5

    def test_empirical_mean_matches_uniform_moments(self):
        # Law of large numbers: mean of 1e5 uniform(-10, 10) draws within 3 sigma / sqrt(n).
        n = 100_000
        us = sample_users(n, 20, 20, 0.01, 98765)
        sigma = 20 / np.sqrt(12)
        assert abs(np.mean(us.x)) < 3 * sigma / np.sqrt(n)
        assert abs(np.mean(us.y)) < 3 * sigma / np.sqrt(n)

    def test_draws_stay_inside_region(self):
        us = sample_users(1000, 6, 2, 0.01, 3)
        assert np.all(np.abs(us.x) <= 3.0) and np.all(np.abs(us.y) <= 1.0)

    def test_accepts_generator_and_continues_stream(self):
        # Passing a Generator consumes from its stream, used by the resampling loop.
        rng = np.random.default_rng([5, 0])
        first = sample_users(2, 20, 20, 0.01, rng)
        second = sample_users(2, 20, 20, 0.01, rng)
        assert not np.array_equal(first.x, second.x)
        assert np.array_equal(first.x, sample_users(2, 20, 20, 0.01, [5, 0]).x)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(1, 9), st.floats(1e-3, 1e3), st.floats(1e-3, 1e3), st.integers(0, 2**32 - 1))
    def test_scales_as_generator_uniform(self, num_users, width, depth, seed):
        # x then y, each scaled as Generator.uniform(-w/2, w/2) scales its unit draws.
        rng = np.random.default_rng(seed)
        x = rng.uniform(-width / 2.0, width / 2.0, size=num_users)
        y = rng.uniform(-depth / 2.0, depth / 2.0, size=num_users)
        us = sample_users(num_users, width, depth, 0.01, seed)
        assert us.x.tobytes() == x.tobytes() and us.y.tobytes() == y.tobytes()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(1, 5), st.integers(1, 4), st.floats(5e-324, 1e300), st.floats(5e-324, 1e300),
           st.integers(0, 2**32 - 1))
    def test_uniform_draws_are_draw_by_draw_x_then_y(self, count, num_users, width, depth, seed):
        # One block of draws has the bits of Generator.uniform called draw by draw, x then y, at any count.
        x, y = uniform_draws(np.random.default_rng(seed), count, num_users, width, depth)
        assert x.shape == y.shape == (count, num_users)
        rng = np.random.default_rng(seed)
        for j in range(count):
            assert x[j].tobytes() == rng.uniform(-width / 2.0, width / 2.0, size=num_users).tobytes()
            assert y[j].tobytes() == rng.uniform(-depth / 2.0, depth / 2.0, size=num_users).tobytes()

    @pytest.mark.parametrize("kw", [
        dict(num_users=0, region_x_m=1, region_y_m=1, power_w=1, rng_seed=0),
        dict(num_users=1, region_x_m=0, region_y_m=1, power_w=1, rng_seed=0),
        dict(num_users=1, region_x_m=1, region_y_m=-1, power_w=1, rng_seed=0),
    ])
    def test_rejects_bad_arguments(self, kw):
        with pytest.raises(ValueError):
            sample_users(**kw)


class TestUserSet:
    def test_axis_distance_dominated_by_height(self):
        us = UserSet(x=np.array([0.0, 1.0]), y=np.array([0.0, -4.0]), power_w=np.array([0.01, 0.02]))
        d_sq = us.dist_sq_to_axis(3.0)
        assert np.all(d_sq >= 9.0)
        assert d_sq[1] == 25.0

    def test_rejects_nonpositive_power(self):
        with pytest.raises(ValueError):
            UserSet(x=np.zeros(2), y=np.zeros(2), power_w=np.array([0.01, 0.0]))
        p = np.full(2, 0.01)
        for x, y, power_w, message in (
            (np.zeros(2), np.zeros(3), p, "equal length"),
            (np.zeros((1, 2)), np.zeros((1, 2)), p.reshape(1, 2), "1-d"),
            (np.zeros(0), np.zeros(0), np.zeros(0), "at least one user"),
            (np.array([0.0, np.nan]), np.zeros(2), p, "finite"),
            (np.zeros(2), np.array([np.inf, 0.0]), p, "finite"),
            (np.zeros(2), np.zeros(2), np.array([0.01, np.inf]), "finite"),
        ):
            with pytest.raises(ValueError, match=message):
                UserSet(x=x, y=y, power_w=power_w)

    def test_arrays_are_read_only(self):
        us = sample_users(3, 20, 20, 0.01, 0)
        with pytest.raises(ValueError):
            us.x[0] = 1.0


class TestDbmConversion:
    def test_known_values(self):
        assert dbm_to_watts(10.0) == pytest.approx(0.01, rel=1e-12)
        assert dbm_to_watts(-90.0) == pytest.approx(1e-12, rel=1e-12)
        assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-12)

    def test_round_trip(self):
        for dbm in np.linspace(-120, 60, 121):
            assert abs(watts_to_dbm(dbm_to_watts(dbm)) - dbm) < 1e-9

    def test_rejects_nonpositive_power(self):
        with pytest.raises(ValueError):
            watts_to_dbm(0.0)


class TestPlacement:
    def setup_method(self):
        self.layout = build_centered_layout(4, 1.0, 3.0)
        self.params = params_28ghz()

    def test_with_segment_accumulates(self):
        pl = with_segment(with_segment(empty_placement(), 2, 0.4), 0, -1.7, phase=1.0)
        assert pl.active == (2, 0)
        assert pl.positions == (0.4, -1.7)
        assert pl.phases == (0.0, 1.0)
        pl.validate(self.layout, self.params)

    def test_validate_rejects_position_outside_segment(self):
        pl = Placement(active=(1,), positions=(0.5,), phases=(0.0,))
        with pytest.raises(ValueError):
            pl.validate(self.layout, self.params)
        for segment in (-1, 4):  # the layout has segments 0..3
            with pytest.raises(ValueError, match=f"segment index {segment} outside layout"):
                Placement(active=(segment,), positions=(0.0,), phases=(0.0,)).validate(self.layout, self.params)

    def test_validate_rejects_spacing_violation(self):
        delta = self.params.min_spacing_m
        pl = Placement(active=(1, 2), positions=(-0.001, 0.001), phases=(0.0, 0.0))
        assert 0.002 < delta
        with pytest.raises(ValueError):
            pl.validate(self.layout, self.params)

    def test_positions_and_phases_must_cover_active(self):
        with pytest.raises(ValueError):
            Placement(active=(0, 1), positions=(-1.5,), phases=(0.0, 0.0))
        with pytest.raises(ValueError):
            Placement(active=(0,), positions=(-1.5,), phases=())

    def test_duplicate_segment_rejected(self):
        pl = with_segment(empty_placement(), 1, -0.5)
        with pytest.raises(ValueError):
            with_segment(pl, 1, -0.4)
        with pytest.raises(ValueError, match="distinct"):
            Placement(active=(1, 1), positions=(-0.5, -0.4), phases=(0.0, 0.0))

    def test_numpy_entries_become_python_tuples(self):
        pl = Placement(active=np.array([2, 0]), positions=np.array([0.4, -1.7]),
                       phases=np.array([0.0, 1.0], dtype=np.float32))
        for field, kind in ((pl.active, int), (pl.positions, float), (pl.phases, float)):
            assert type(field) is tuple and all(type(v) is kind for v in field)
        assert pl == Placement(active=(2, 0), positions=(0.4, -1.7), phases=(0.0, 1.0))

    def test_equal_placements_compare_and_hash_equal(self):
        a = Placement(active=(2, 0), positions=(0.4, -1.7), phases=(0.0, 1.0))
        b = with_segment(with_segment(empty_placement(), np.int64(2), np.float64(0.4)), 0, -1.7, phase=1.0)
        assert a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert a != Placement(active=(0, 2), positions=(-1.7, 0.4), phases=(1.0, 0.0))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.sampled_from([0.25, 0.3, 1.0]), st.data())
    def test_spacing_decision_matches_all_pairs_oracle(self, spacing, data):
        # Segment m spans [m, m + 1] exactly, so segments m and m + 1 can share a position.
        layout = WaveguideLayout(8, 1.0, 3.0, start_x=0.0)
        active = data.draw(st.lists(st.integers(0, 7), min_size=1, max_size=8, unique=True))
        # Points on a grid of the spacing give gaps of exactly min_spacing_m, or an ulp off it.
        positions = [data.draw(st.one_of(st.sampled_from([min(m + k * spacing, m + 1.0) for k in range(5)]),
                                         st.floats(m, m + 1.0))) for m in active]
        pl = Placement(active=active, positions=positions, phases=[0.0] * len(active))
        params = params_28ghz(min_spacing_m=spacing)
        if spacing_violated(positions, spacing):
            with pytest.raises(ValueError, match="spacing"):
                pl.validate(layout, params)
        else:
            pl.validate(layout, params)
