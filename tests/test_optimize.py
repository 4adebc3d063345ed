"""Greedy activation, phase alternating optimization, full-activation baseline."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    aligned_grid_point,
    dispatch_children,
    element_update,
    empty_placement,
    exhaustive_zero_phase_rate,
    fresh,
    full_sa_rescan,
    params_28ghz,
    phase_exponent_report,
    quadratic_objective,
    with_segment,
)

from swanopt import optimize
from swanopt.bound import exact_amplitude_bound
from swanopt.channel import cascaded_gain_matrix, placement_sum_rate, segment_gains
from swanopt.geometry import Placement, SystemParams, UserSet, WaveguideLayout, build_centered_layout, sample_users
from swanopt.optimize import (
    GreedyTrace,
    _free_points,
    _infeasible_mask,
    _level_search,
    _stacked_ao,
    build_phase_matrix,
    candidate_grid,
    full_sa_baseline,
    greedy_hssa_type1,
    greedy_hssa_type2,
    grid_gain_table,
    phase_alternating_opt,
)

TWO_PI = 2 * np.pi


def random_matrix(rng, num_segments, num_users):
    gains = rng.normal(size=(num_users, num_segments)) + 1j * rng.normal(size=(num_users, num_segments))
    powers = rng.uniform(0.001, 0.02, num_users)
    return (gains * powers[:, None]).T @ np.conj(gains), gains, powers


def place(segment, current, users, layout, params, grid_points, align=False):
    """(position, rate, gain column) of the best grid point against a committed placement, or None."""
    aggregate = np.zeros(users.num_users, dtype=complex)
    if current.active:
        aggregate = cascaded_gain_matrix(users, current, layout, params) @ np.exp(1j * np.array(current.phases))
    grid = candidate_grid(segment, layout, grid_points)
    block = segment_gains(users, segment, grid, layout, params)
    return grid_search(grid, block, np.array(current.positions), aggregate, current.num_active, users, params, align)


def grid_search(grid, block, occupied, aggregate, n_active, users, params, align):
    """The per-segment search oracle, with the spacing mask built from the occupied positions; None when it
    blocks every point."""
    blocked = _infeasible_mask(grid, occupied, params.min_spacing_m)
    if blocked.all():
        return None
    free = ~blocked if blocked.any() else None
    return aligned_grid_point(grid, block, free, aggregate, n_active, users, params, align)


class TestCandidateGrid:
    def setup_method(self):
        self.layout = WaveguideLayout(12, 1.0, 3.0, start_x=5.0)

    def test_two_points_are_the_endpoints(self):
        lay = WaveguideLayout(2, 1.0, 3.0, start_x=0.0)
        assert list(candidate_grid(0, lay, 2)) == [0.0, 1.0]

    def test_eleven_points_tenth_steps(self):
        lay = WaveguideLayout(2, 1.0, 3.0, start_x=0.0)
        assert candidate_grid(0, lay, 11) == pytest.approx(np.arange(0, 1.05, 0.1), abs=1e-12)

    def test_thousand_points_span_and_spacing(self):
        grid = candidate_grid(0, self.layout, 1000)
        assert grid[0] == 5.0 and grid[-1] == 6.0
        assert np.allclose(np.diff(grid), 1.0 / 999.0, rtol=1e-9)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            candidate_grid(0, self.layout, 1)

    @pytest.mark.parametrize("segment", [-1, 12])  # the layout has segments 0..11
    def test_segment_outside_the_layout_rejected(self, segment):
        with pytest.raises(ValueError, match=f"segment index {segment} outside layout of 12 segments"):
            candidate_grid(segment, self.layout, 11)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(1, 120), st.one_of(st.just(0.3), st.floats(0.01, 5.0)), st.integers(2, 1000))
    @example(120, 0.3, 1000)
    def test_ends_are_the_layout_segment_ends(self, num_segments, length, grid_points):
        # The searches read a grid's first and last points from the layout,
        # also on centered layouts whose rounding leaves gaps between segments.
        layout = build_centered_layout(num_segments, length, 3.0)
        for m in range(num_segments):
            grid = candidate_grid(m, layout, grid_points)
            assert grid[0] == layout.feed_x[m] and grid[-1] == layout.segment_ends[m]


@st.composite
def spacing_scenarios(draw):
    """(ascending grid, occupied positions, spacing) with positions where the prefilter could go wrong.

    Positions fall in the grid's segment, in segments up to three lengths
    away, far away, within a few ulps of one spacing or two spacings from a
    grid point, and repeat each other.
    """
    seg_len = draw(st.floats(1e-3, 10.0))
    lo = draw(st.one_of(st.just(0.0), st.floats(-1.0, 1.0), st.floats(-100.0, 100.0)))
    grid = np.linspace(lo, lo + seg_len, draw(st.integers(2, 1000)))
    spacing = draw(st.one_of(st.floats(1e-6, 3.0 * seg_len),
                             st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]).map(lambda f: f * seg_len)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    positions = []
    kinds = rng.choice(["same", "near", "far", "edge", "twice", "repeat"], size=draw(st.integers(0, 60)))
    for kind in kinds:
        if kind == "same":
            positions.append(rng.uniform(grid[0], grid[-1]))
        elif kind == "near":
            k = int(rng.integers(1, 4)) * (1 if rng.random() < 0.5 else -1)
            positions.append(rng.uniform(grid[0], grid[-1]) + k * seg_len)
        elif kind == "far":
            positions.append(rng.choice([-1.0, 1.0]) * rng.uniform(1e3, 1e6))
        elif kind in ("edge", "twice"):
            reach = spacing if kind == "edge" else 2.0 * spacing
            g = grid[rng.choice([0, len(grid) - 1, int(rng.integers(len(grid)))])]
            p = g + rng.choice([-1.0, 1.0]) * reach
            ulps = int(rng.integers(-2, 3))
            for _ in range(abs(ulps)):
                p = np.nextafter(p, math.copysign(math.inf, ulps))
            positions.append(p)
        elif positions:
            positions.append(positions[int(rng.integers(len(positions)))])
    return grid, np.array(positions, dtype=float), spacing


class TestInfeasiblePoints:
    def test_empty_placement_excludes_nothing(self):
        grid = np.array([0.0, 0.5, 0.9, 1.1])
        assert not _infeasible_mask(grid, np.array(empty_placement().positions), 0.2).any()

    def test_points_near_placed_antenna_excluded(self):
        lay = WaveguideLayout(4, 1.0, 3.0, start_x=0.0)
        placed = with_segment(empty_placement(), 0, 1.0)
        grid = np.array([0.0, 0.5, 0.9, 1.1])
        assert list(grid[_infeasible_mask(grid, np.array(placed.positions), 0.2)]) == [0.9, 1.1]

    def test_exclusion_count_bounded_on_uniform_grid(self):
        # A neighbor antenna parked at a shared edge can knock out at most
        # ceil(delta * (Q - 1) / L) + 1 points of the adjacent segment's grid.
        params = params_28ghz()
        lay = WaveguideLayout(2, 1.0, 3.0, start_x=0.0)
        placed = with_segment(empty_placement(), 0, 1.0)
        for q in (100, 1000):
            grid = candidate_grid(1, lay, q)
            excluded = _infeasible_mask(grid, np.array(placed.positions), params.min_spacing_m)
            cap = math.ceil(params.min_spacing_m * (q - 1) / 1.0) + 1
            assert 1 <= excluded.sum() <= cap

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(spacing_scenarios())
    def test_equals_all_pairs_comparison(self, scenario):
        grid, positions, spacing = scenario
        oracle = (np.abs(grid[:, None] - positions[None, :]) < spacing).any(axis=1)
        assert np.array_equal(_infeasible_mask(grid, positions, spacing), oracle)


class TestGridGainTable:
    @pytest.mark.parametrize("kappa", [0.0, 0.08])
    @pytest.mark.parametrize("q", [200, 1000])
    def test_sliced_blocks_equal_kernel_on_feasible_subset(self, q, kappa):
        # Slicing must reproduce the kernel's bits on any subset, whatever
        # SIMD lane an element fell into when the whole grid was computed.
        params = params_28ghz(kappa_db_per_m=kappa)
        lay = build_centered_layout(5, 1.0, 3.0)
        users = sample_users(4, 10.0, 10.0, 0.01, 211)
        rng = np.random.default_rng(q)
        table = grid_gain_table(users, lay, params, q)
        assert len(table) == 5
        for m, (grid, block) in enumerate(table):
            assert np.array_equal(grid, candidate_grid(m, lay, q))
            assert np.array_equal(block, segment_gains(users, m, grid, lay, params))
            for infeasible_share in (0.01, 0.3, 0.97):
                keep = rng.random(q) >= infeasible_share
                assert np.array_equal(block[:, keep], segment_gains(users, m, grid[keep], lay, params))
            i = int(rng.integers(q))
            assert np.array_equal(block[:, i], segment_gains(users, m, float(grid[i]), lay, params)[:, 0])


class TestPlaceInSegment:
    def setup_method(self):
        self.params = params_28ghz()
        self.layout = build_centered_layout(3, 1.0, 3.0)

    def test_single_user_lands_within_one_grid_step_of_projection(self):
        users = sample_users(1, 0.8, 6.0, 0.01, 41)
        pos, _, _ = place(1, empty_placement(), users, self.layout, self.params, 101)
        step = 1.0 / 100.0
        assert abs(pos - users.x[0]) <= step

    def test_phase_mode_immaterial_for_first_antenna(self):
        users = sample_users(2, 2.5, 10.0, 0.01, 43)
        pos_none, rate_none, col_none = place(0, empty_placement(), users, self.layout, self.params, 40)
        pos_align, rate_align, col_align = place(0, empty_placement(), users, self.layout, self.params, 40, True)
        assert (pos_none, rate_none) == (pos_align, rate_align)
        assert np.array_equal(col_none, col_align)

    def test_returned_point_beats_every_feasible_grid_point(self):
        users = sample_users(3, 2.5, 12.0, 0.01, 47)
        current = with_segment(with_segment(empty_placement(), 0, -1.2), 2, 0.8)
        pos, rate, column = place(1, current, users, self.layout, self.params, 50)
        assert np.array_equal(column, segment_gains(users, 1, pos, self.layout, self.params)[:, 0])
        grid = candidate_grid(1, self.layout, 50)
        bad = set(grid[_infeasible_mask(grid, np.array(current.positions), self.params.min_spacing_m)].tolist())
        for x in grid:
            if float(x) in bad:
                continue
            trial = with_segment(current, 1, float(x))
            assert rate >= placement_sum_rate(users, trial, self.layout, self.params) - 1e-12
        best = with_segment(current, 1, pos)
        assert rate == pytest.approx(placement_sum_rate(users, best, self.layout, self.params), rel=1e-12)

    def test_aligned_mode_maximizes_single_element_alignment(self):
        users = sample_users(3, 2.5, 12.0, 0.01, 53)
        current = with_segment(with_segment(empty_placement(), 0, -1.2, phase=0.7), 2, 0.8, phase=2.1)
        pos, rate, _ = place(1, current, users, self.layout, self.params, 40, True)
        g_cur = cascaded_gain_matrix(users, current, self.layout, self.params)
        agg = g_cur @ np.exp(1j * np.array(current.phases))
        grid = candidate_grid(1, self.layout, 40)
        best = -np.inf
        best_x = None
        for x in grid:
            g = segment_gains(users, 1, float(x), self.layout, self.params)[:, 0]
            s = np.sum(users.power_w * g * np.conj(agg))
            v = 1.0 if s == 0 else np.exp(-1j * np.angle(s))
            snr = np.sum(users.power_w * np.abs(agg + v * g) ** 2) / 3.0 / self.params.noise_power_w
            r = np.log2(1.0 + snr)
            if r > best:
                best, best_x = r, float(x)
        assert pos == best_x
        assert rate == pytest.approx(best, rel=1e-12)

    def test_fully_blocked_segment_returns_none(self):
        params = params_28ghz(min_spacing_m=2.5)
        lay = build_centered_layout(2, 1.0, 3.0)
        users = sample_users(1, 1.5, 4.0, 0.01, 3)
        current = with_segment(empty_placement(), 0, -0.5)
        assert place(1, current, users, lay, params, 20) is None


class TestGreedyTypeOne:
    def setup_method(self):
        self.params = params_28ghz()

    def test_single_segment_trace(self):
        lay = build_centered_layout(1, 1.0, 3.0)
        users = sample_users(1, 0.9, 5.0, 0.01, 61)
        trace = greedy_hssa_type1(users, lay, self.params, 60)
        assert len(trace.levels) == 1 and trace.best_level == 1
        pos, rate, _ = place(0, empty_placement(), users, lay, self.params, 60)
        assert trace.levels[0].placement.positions[-1] == pos and trace.levels[0].rate == rate

    def test_first_pick_matches_single_segment_oracle(self):
        lay = build_centered_layout(3, 1.0, 3.0)
        users = sample_users(1, 0.9, 8.0, 0.01, 67)  # projection inside the middle segment
        per_segment = [place(m, empty_placement(), users, lay, self.params, 80)[1]
                       for m in range(3)]
        trace = greedy_hssa_type1(users, lay, self.params, 80)
        assert trace.levels[0].placement.active[-1] == int(np.argmax(per_segment)) == 1

    def test_best_level_dominates_full_activation(self):
        lay = build_centered_layout(4, 1.0, 3.0)
        users = sample_users(2, 4.0, 12.0, 0.01, 71)
        trace = greedy_hssa_type1(users, lay, self.params, 25)
        assert len(trace.levels) == 4
        assert trace.best_rate >= trace.levels[-1].rate

    def test_snapshots_satisfy_placement_invariants(self):
        lay = build_centered_layout(5, 1.0, 3.0)
        users = sample_users(3, 5.0, 10.0, 0.01, 73)
        trace = greedy_hssa_type1(users, lay, self.params, 40)
        for level, lvl in enumerate(trace.levels, 1):
            lvl.placement.validate(lay, self.params)
            assert lvl.placement.num_active == level
            recomputed = placement_sum_rate(users, lvl.placement, lay, self.params)
            assert lvl.rate == pytest.approx(recomputed, rel=1e-12)

    def test_blocked_levels_marked_degenerate(self):
        params = params_28ghz(min_spacing_m=2.5)
        lay = build_centered_layout(2, 1.0, 3.0)
        users = sample_users(1, 1.5, 4.0, 0.01, 79)
        trace = greedy_hssa_type1(users, lay, params, 30)
        assert len(trace.levels) == 2
        assert not trace.levels[0].degenerate
        assert trace.levels[1].degenerate
        assert trace.levels[1].rate == trace.levels[0].rate
        assert trace.levels[1].placement.num_active == 1  # level 2 commits no segment
        assert trace.levels[1].placement == trace.levels[0].placement
        assert trace.best_level == 1

    def test_bit_identical_reruns(self):
        lay = build_centered_layout(6, 1.0, 3.0)
        users = sample_users(4, 6.0, 14.0, 0.01, 83)
        a = greedy_hssa_type1(users, lay, self.params, 50)
        b = greedy_hssa_type1(users, lay, self.params, 50)
        for la, lb in zip(a.levels, b.levels):
            assert la.placement.active[-1] == lb.placement.active[-1]
            assert la.placement.positions[-1] == lb.placement.positions[-1]
            assert la.rate == lb.rate


class TestPhaseMatrix:
    def setup_method(self):
        self.params = params_28ghz()
        self.layout = build_centered_layout(4, 1.0, 3.0)

    def test_single_user_two_segments_is_rank_one(self):
        users = sample_users(1, 3.0, 6.0, 0.01, 89)
        pl = with_segment(with_segment(empty_placement(), 0, -1.6), 2, 0.4)
        pm = build_phase_matrix(cascaded_gain_matrix(users, pl, self.layout, self.params), users.power_w)
        g = cascaded_gain_matrix(users, pl, self.layout, self.params)[0]
        expected = 0.01 * np.outer(g, np.conj(g))
        assert pm == pytest.approx(expected, rel=1e-12)
        s = np.linalg.svd(pm, compute_uv=False)
        assert s[1] <= 1e-12 * s[0]

    def test_hermitian_with_real_nonnegative_diagonal(self):
        users = sample_users(5, 4.0, 10.0, 0.01, 97)
        pl = empty_placement()
        for m in range(4):
            lo, hi = self.layout.segment_interval(m)
            pl = with_segment(pl, m, (lo + hi) / 2 + 0.01 * m)
        pm = build_phase_matrix(cascaded_gain_matrix(users, pl, self.layout, self.params), users.power_w)
        assert np.max(np.abs(pm - pm.conj().T)) < 1e-12 * np.max(np.abs(pm))
        diag = pm.diagonal()
        assert np.all(np.abs(diag.imag) <= 1e-12 * diag.real)
        assert np.all(diag.real >= 0.0)

    def test_quadratic_form_matches_direct_objective(self):
        rng = np.random.default_rng(101)
        pm, gains, powers = random_matrix(rng, 5, 3)
        for _ in range(10):
            v = np.exp(1j * rng.uniform(0, TWO_PI, 5))
            direct = float(np.sum(powers * np.abs(gains @ v) ** 2))
            assert quadratic_objective(pm, v) == pytest.approx(direct, rel=1e-10)


def element_update_loop(a, init, tol, max_iter):
    """AO as one `element_update` call per element: the reference bits of the stacked kernel."""
    v = np.ones(a.shape[0], dtype=complex) if init is None else np.array(init, dtype=complex)
    if a.shape[0] == 1:  # a lone element has no coefficient to align with
        return wrap_phases(v), float(np.real(a[0, 0])), 0
    obj = quadratic_objective(a, v)
    iterations = 0
    for sweep in range(1, max_iter + 1):
        for m in range(a.shape[0]):
            v[m] = element_update(a, v, m)
        new_obj = quadratic_objective(a, v)
        iterations = sweep
        if new_obj - obj <= tol * max(abs(obj), 1e-300):
            obj = new_obj
            break
        obj = new_obj
    return wrap_phases(v), float(obj), iterations


def wrap_phases(v):
    phases = np.mod(np.angle(v), TWO_PI)
    phases[phases >= TWO_PI] = 0.0
    return phases


class TestPhaseAlternatingOpt:
    def test_single_segment_returns_init(self):
        pm = np.array([[2.5 + 0j]])
        init = np.array([np.exp(1j * 0.9)])
        phases, objective, iterations = phase_alternating_opt(pm, init=init)
        assert phases == pytest.approx([0.9]) and objective == 2.5 and iterations == 0

    def test_element_updates_never_decrease_objective(self):
        rng = np.random.default_rng(103)
        for _ in range(30):
            s = int(rng.integers(2, 10))
            pm, _, _ = random_matrix(rng, s, int(rng.integers(1, 6)))
            v = np.exp(1j * rng.uniform(0, TWO_PI, s))
            obj = quadratic_objective(pm, v)
            for _sweep in range(10):
                for m in range(s):
                    v[m] = element_update(pm, v, m)
                    new = quadratic_objective(pm, v)
                    assert new >= obj - 1e-13 * max(abs(obj), 1.0)
                    obj = new

    def test_single_user_converges_to_analytic_alignment(self):
        params = params_28ghz()
        lay = build_centered_layout(8, 1.0, 3.0)
        rng = np.random.default_rng(107)
        for trial in range(10):
            users = sample_users(1, 8.0, 10.0, 0.01, [991, trial])
            pl = empty_placement()
            for m in range(8):
                lo, hi = lay.segment_interval(m)
                pl = with_segment(pl, m, float(rng.uniform(lo, hi)))
            pm = build_phase_matrix(cascaded_gain_matrix(users, pl, lay, params), users.power_w)
            _, objective, _ = phase_alternating_opt(pm)
            g = cascaded_gain_matrix(users, pl, lay, params)[0]
            target = 0.01 * np.sum(np.abs(g)) ** 2
            assert abs(math.sqrt(objective) - math.sqrt(target)) / math.sqrt(target) < 1e-9

    def test_beats_random_sampling(self):
        rng = np.random.default_rng(109)
        pm, _, _ = random_matrix(rng, 3, 2)
        _, objective, _ = phase_alternating_opt(pm)
        thetas = rng.uniform(0, TWO_PI, size=(10_000, 3))
        vs = np.exp(1j * thetas)
        samples = np.real(np.einsum("qs,st,qt->q", vs, pm, np.conj(vs)))
        assert objective >= samples.max()

    def test_outputs_unit_modulus_phases_in_range(self):
        rng = np.random.default_rng(113)
        pm, _, _ = random_matrix(rng, 6, 4)
        phases, _, iterations = phase_alternating_opt(pm)
        assert np.all((0 <= phases) & (phases < TWO_PI))
        assert 1 <= iterations <= 100
        assert np.allclose(np.abs(np.exp(1j * phases)), 1.0, atol=1e-12)

    def test_decoupled_matrix_is_stationary(self):
        pm = np.diag([1.0 + 0j, 2.0 + 0j])
        init = np.exp(1j * np.array([0.3, 5.1]))
        phases, objective, iterations = phase_alternating_opt(pm, init=init)
        assert phases == pytest.approx([0.3, 5.1])
        assert objective == pytest.approx(3.0)
        assert iterations == 1

    def test_rejects_non_unit_init(self):
        pm = np.eye(2, dtype=complex)
        for init in ([1.0, 0.5], [np.nan, 1.0], [1.0, complex(np.nan, 0.0)], [np.inf, 1.0]):
            with pytest.raises(ValueError, match="init entries must be unit-modulus"):
                phase_alternating_opt(pm, init=np.array(init))
        for init in (np.ones(1), np.ones(3), np.ones((2, 1))):
            with pytest.raises(ValueError, match="init length"):
                phase_alternating_opt(pm, init=init)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(2, 40), st.integers(1, 8), st.integers(0, 2**32 - 1), st.booleans(),
           st.sampled_from([1e-8, 0.0, 1e-3]), st.sampled_from([1, 3, 100]))
    def test_matches_element_update_loop_bit_for_bit(self, s, k, seed, warm, tol, max_iter):
        rng = np.random.default_rng(seed)
        gains = 10.0 ** rng.uniform(-6.0, 0.0, (k, s)) * (rng.normal(size=(k, s)) + 1j * rng.normal(size=(k, s)))
        gains[:, rng.random(s) < 0.2] = 0.0  # zero rows and columns of A: zero coefficients
        a = build_phase_matrix(gains, 10.0 ** rng.uniform(-4.0, 0.0, k))
        init = np.exp(1j * rng.uniform(0, TWO_PI, s)) if warm else None
        phases, objective, iterations = phase_alternating_opt(a, init=init, tol=tol, max_iter=max_iter)
        ref_phases, ref_objective, ref_iterations = element_update_loop(a, init, tol, max_iter)
        assert np.array_equal(phases, ref_phases)
        assert objective == ref_objective and iterations == ref_iterations
        # C5: AO never ends below its start (zero phases when cold); the
        # guard absorbs re-evaluation rounding of the quadratic form.
        start = quadratic_objective(a, np.ones(s, dtype=complex) if init is None else init)
        assert objective >= start - 1e-13 * max(abs(start), 1.0)


class TestStackedAO:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.integers(1, 39), st.integers(1, 40), st.integers(1, 8), st.integers(0, 2**32 - 1), st.booleans(),
           st.sampled_from([1e-8, 0.0, 1e-3]), st.sampled_from([0, 1, 3, 100]))
    def test_equals_lone_calls_bit_for_bit(self, c, s, k, seed, warm, tol, max_iter):
        rng = np.random.default_rng(seed)
        gains = 10.0 ** rng.uniform(-6.0, 0.0, (c, k, s)) * (rng.normal(size=(c, k, s)) + 1j * rng.normal(size=(c, k, s)))
        gains *= rng.random((c, 1, s)) >= 0.2  # zero rows and columns of A: zero coefficients
        powers = 10.0 ** rng.uniform(-4.0, 0.0, k)
        a = np.stack([build_phase_matrix(g, powers) for g in gains])
        assert build_phase_matrix(gains, powers).tobytes() == a.tobytes()
        init = np.exp(1j * rng.uniform(0, TWO_PI, (c, s))) if warm else None
        phases, objectives, iterations = _stacked_ao(a, tol, max_iter, init)
        for i in range(c):
            ref_phases, ref_objective, ref_iterations = element_update_loop(
                a[i], None if init is None else init[i], tol, max_iter)
            assert phases[i].tobytes() == ref_phases.tobytes()
            assert objectives[i] == ref_objective and iterations[i] == ref_iterations


class TestPhaseExponent:
    # `_stacked_ao` writes exp(0 + i theta) into conj(v) where the reference
    # update takes conj(exp(-1j * theta)); the two must agree bit for bit,
    # signed zeros included, at every dispatch level.
    def test_equals_the_conjugated_exponent_bit_for_bit(self):
        children = dispatch_children("import oracles; print(oracles.phase_exponent_report())")
        reports = [("default", json.loads(phase_exponent_report()))]
        for setting, child in children:
            out, err = child.communicate(timeout=120)
            assert child.returncode == 0, err
            reports.append((f"NPY_DISABLE_CPU_FEATURES={setting!r}", json.loads(out)))
        for where, report in reports:
            assert report["mismatches"] == [], f"{where}, dispatch targets {report['targets'] or 'the baseline'}"


class TestGreedyTypeTwo:
    def setup_method(self):
        self.params = params_28ghz()

    def test_single_user_phase_shifters_never_hurt(self):
        lay = build_centered_layout(5, 1.0, 3.0)
        for seed in range(5):
            users = sample_users(1, 5.0, 10.0, 0.01, [313, seed])
            t1 = greedy_hssa_type1(users, lay, self.params, 60)
            t2 = greedy_hssa_type2(users, lay, self.params, 60)
            assert t2.best_rate >= t1.best_rate - 1e-12

    def test_first_level_identical_to_type_one(self):
        lay = build_centered_layout(4, 1.0, 3.0)
        users = sample_users(3, 4.0, 8.0, 0.01, 131)
        t1 = greedy_hssa_type1(users, lay, self.params, 40)
        t2 = greedy_hssa_type2(users, lay, self.params, 40)
        assert t1.levels[0].placement.active[-1] == t2.levels[0].placement.active[-1]
        assert t1.levels[0].placement.positions[-1] == t2.levels[0].placement.positions[-1]
        assert t1.levels[0].rate == pytest.approx(t2.levels[0].rate, rel=1e-12)

    def test_best_dominates_full_activation_and_snapshots_consistent(self):
        lay = build_centered_layout(4, 1.0, 3.0)
        users = sample_users(4, 4.0, 12.0, 0.01, 137)
        trace = greedy_hssa_type2(users, lay, self.params, 30)
        assert trace.best_rate >= trace.levels[-1].rate
        for lvl in trace.levels:
            lvl.placement.validate(lay, self.params)
            recomputed = placement_sum_rate(users, lvl.placement, lay, self.params)
            assert lvl.rate == pytest.approx(recomputed, rel=1e-10)

    def test_level_rates_dominate_type_one_levels(self):
        # Phase alignment is re-run per candidate, so every stored level of the
        # phase-shifter search is at least the switch-only level on the same scenario.
        lay = build_centered_layout(5, 1.0, 3.0)
        users = sample_users(2, 5.0, 10.0, 0.01, 139)
        t1 = greedy_hssa_type1(users, lay, self.params, 40)
        t2 = greedy_hssa_type2(users, lay, self.params, 40)
        for l1, l2 in zip(t1.levels, t2.levels):
            assert l2.rate >= l1.rate - 1e-9


def scenario(num_users, num_segments, seg_len, kappa, spacing, noise_exponent, height, seed, region, grid_points):
    """(users, layout, params, grid_points) of a small instance.

    `spacing` is in segment lengths and `region`, the width of the users' x-range, in layout lengths.
    """
    params = params_28ghz(kappa_db_per_m=kappa, min_spacing_m=seg_len * spacing, noise_power_w=10.0 ** noise_exponent)
    layout = build_centered_layout(num_segments, seg_len, height)
    rng = np.random.default_rng(seed)
    width = num_segments * seg_len * region
    users = UserSet(x=rng.uniform(-width / 2, width / 2, num_users),
                    y=rng.uniform(-5.0, 5.0, num_users),
                    power_w=10.0 ** rng.uniform(-4.0, 0.0, num_users))
    return users, layout, params, grid_points


@st.composite
def greedy_scenarios(draw, min_segments=2, max_grid=9,
                     spacing=st.sampled_from([0.005, 0.3, 0.7, 1.0, 1.5]),
                     kappa=st.sampled_from([0.0, 0.0, 0.05, 1.0]),
                     noise_exponent=st.floats(-15.0, 4.0),
                     seg_len=st.floats(0.2, 2.0)):
    """Small instances: uneven powers, attenuation, and spacings (in segment lengths) up to 1.5 by default."""
    return scenario(draw(st.integers(1, 4)), draw(st.integers(min_segments, 8)), draw(seg_len), draw(kappa),
                    draw(spacing), draw(noise_exponent), draw(st.floats(0.5, 6.0)),
                    draw(st.integers(0, 2**32 - 1)), draw(st.floats(0.3, 1.5)), draw(st.integers(2, max_grid)))


def phase_level_candidates(users, layout, params, grid_points, prefix, tol=1e-8, max_iter=100):
    """(segment, position, AO result) of every candidate after `prefix`, each AO run on its own."""
    n = prefix.num_active
    gains = np.zeros((users.num_users, 0), dtype=complex)
    aggregate = np.zeros(users.num_users, dtype=complex)
    if n:
        gains = cascaded_gain_matrix(users, prefix, layout, params)
        aggregate = gains @ np.exp(1j * np.array(prefix.phases))
    for m in range(layout.num_segments):
        if m in prefix.active:
            continue
        grid = candidate_grid(m, layout, grid_points)
        block = segment_gains(users, m, grid, layout, params)
        best = grid_search(grid, block, np.array(prefix.positions), aggregate, n, users, params, True)
        if best is None:
            continue
        pos, _, column = best
        trial = np.concatenate([gains, column[:, None]], axis=1)
        yield m, pos, phase_alternating_opt(build_phase_matrix(trial, users.power_w), tol=tol, max_iter=max_iter)


def exhaustive_phase_level(users, layout, params, grid_points, prefix):
    """(rate, segment, position) of the best AO candidate after `prefix`, ties to the smallest segment."""
    best = None
    for m, pos, res in phase_level_candidates(users, layout, params, grid_points, prefix):
        rate = float(np.log2(1.0 + res.objective / ((prefix.num_active + 1) * params.noise_power_w)))
        if best is None or rate > best[0]:
            best = (rate, m, pos)
    return best


def exhaustive_switch_only_level(users, layout, params, grid_points, prefix):
    """(rate, segment, position) of the best zero-phase grid point after `prefix` over every inactive segment.

    Ties go to the smallest segment. Also returns the number of segments with a feasible grid point.
    """
    best, feasible = None, 0
    for m in range(layout.num_segments):
        if m in prefix.active:
            continue
        found = place(m, prefix, users, layout, params, grid_points)
        if found is None:
            continue
        feasible += 1
        if best is None or found[1] > best[0]:
            best = (found[1], m, found[0])
    return best, feasible


class TestBoundPruning:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(greedy_scenarios())
    def test_committed_segment_is_the_exhaustive_argmax(self, scenario):
        users, layout, params, grid_points = scenario
        trace = greedy_hssa_type2(users, layout, params, grid_points)
        prefix = empty_placement()
        for lvl in trace.levels:
            oracle = exhaustive_phase_level(users, layout, params, grid_points, prefix)
            if lvl.degenerate:
                assert oracle is None
                continue
            assert (lvl.rate, lvl.placement.active[-1], lvl.placement.positions[-1]) == oracle
            prefix = lvl.placement

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(greedy_scenarios())
    def test_switch_only_commits_the_exhaustive_argmax(self, scenario):
        users, layout, params, grid_points = scenario
        trace = greedy_hssa_type1(users, layout, params, grid_points)
        prefix = empty_placement()
        exhaustive = 0
        for lvl in trace.levels:
            oracle, feasible = exhaustive_switch_only_level(users, layout, params, grid_points, prefix)
            exhaustive += feasible
            if lvl.degenerate:
                assert oracle is None
                continue
            assert (lvl.rate, lvl.placement.active[-1], lvl.placement.positions[-1]) == oracle
            prefix = lvl.placement
        committed = sum(not lvl.degenerate for lvl in trace.levels)
        assert committed <= trace.grid_searches <= exhaustive

    @pytest.mark.parametrize("noise_power_w, committed, a, c", [
        # Level 1 at an SNR of about 1e-12: the widened bound rounds to the rate itself.
        (1e12, [], None, [1.0, 1.0]),
        # Level 2 after an antenna with gains `a`: the bound computed without
        # its margin rounds below segment 0's rate (found by random search).
        (1.0, [2], [13.130272488412855, 9.83854782023462], [1.817288772715028, 1.5026990031763663]),
    ])
    def test_switch_only_tie_goes_to_the_smaller_segment(self, monkeypatch, noise_power_w, committed, a, c):
        # Segments 0 and 1 share their best column c, so they tie on rate.
        # Segment 1's other column has a larger gain for user 0 and a smaller
        # sum, so its bound is larger and it is searched first. Segment 0's
        # bound rate reaches the tied rate only through the margin and the
        # strict comparison, and segment 0 must be committed.
        params = params_28ghz(noise_power_w=noise_power_w)
        layout = build_centered_layout(3, 1.0, 3.0)
        users = UserSet(x=[0.0, 0.0], y=[0.0, 0.0], power_w=[1.0, 1.0])
        c = np.array(c, dtype=complex)
        strong = np.array([1.2 * c[0], 0.0])
        # Segment 2 holds `a`, far stronger than the others, or nothing usable.
        far = np.zeros(2) if a is None else np.array(a)
        blocks = [np.stack([c, c], axis=1), np.stack([c, strong], axis=1), np.stack([far, far], axis=1)]
        table = [(candidate_grid(m, layout, 2), block.astype(complex)) for m, block in enumerate(blocks)]
        monkeypatch.setattr(optimize, "grid_gain_table", lambda *args: table)
        trace = greedy_hssa_type1(users, layout, params, 2)
        assert [lvl.placement.active[-1] for lvl in trace.levels[:len(committed)]] == committed
        tied = trace.levels[len(committed)]
        assert tied.placement.active[-1] == 0 and tied.placement.positions[-1] == table[0][0][0]

    @pytest.mark.parametrize("committed, a", [([], None), ([2], [13.130272488412855, 9.83854782023462])])
    def test_phase_shifter_tie_goes_to_the_smaller_segment(self, monkeypatch, committed, a):
        # Segments 0 and 1 have the same block, so their candidates have the
        # same trial matrix and tie on rate exactly, at level 1 or after
        # segment 2's far stronger antenna; segment 0 must be committed.
        params = params_28ghz(noise_power_w=1.0)
        layout = build_centered_layout(3, 1.0, 3.0)
        users = UserSet(x=[0.0, 0.0], y=[0.0, 0.0], power_w=[1.0, 1.0])
        c = np.array([1.817288772715028, 1.5026990031763663 + 0.5j])
        far = np.zeros(2) if a is None else np.array(a)
        blocks = [np.stack([c, c], axis=1), np.stack([c, c], axis=1), np.stack([far, far], axis=1)]
        table = [(candidate_grid(m, layout, 2), block.astype(complex)) for m, block in enumerate(blocks)]
        monkeypatch.setattr(optimize, "grid_gain_table", lambda *args: table)
        trace = greedy_hssa_type2(users, layout, params, 2)
        assert [lvl.placement.active[-1] for lvl in trace.levels[:len(committed)]] == committed
        tied = trace.levels[len(committed)]
        assert tied.placement.active[-1] == 0 and tied.placement.positions[-1] == table[0][0][0]


class TestAoCounters:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(greedy_scenarios(), st.sampled_from([0.0, 1e-8, 1e-3]), st.sampled_from([0, 1, 3, 100]))
    def test_counts_equal_one_lone_call_per_candidate(self, scenario, tol, max_iter):
        users, layout, params, grid_points = scenario
        trace = greedy_hssa_type2(users, layout, params, grid_points, tol=tol, max_iter=max_iter)
        runs = sweeps = cap_hits = 0
        prefix = empty_placement()
        for lvl in trace.levels:
            if lvl.degenerate:
                continue
            for _, _, res in phase_level_candidates(users, layout, params, grid_points, prefix, tol, max_iter):
                runs += 1
                sweeps += res.iterations
                cap_hits += prefix.num_active > 0 and res.iterations >= max_iter
            prefix = lvl.placement
        assert (trace.ao_runs, trace.ao_sweeps, trace.ao_cap_hits) == (runs, sweeps, cap_hits)
        assert trace.grid_searches == runs  # every candidate is grid-searched once
        switch_only = greedy_hssa_type1(users, layout, params, grid_points)
        assert (switch_only.ao_runs, switch_only.ao_sweeps, switch_only.ao_cap_hits) == (0, 0, 0)


class TestAlignedLevelSearch:
    @pytest.mark.parametrize("align", [False, True])
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(greedy_scenarios(max_grid=60), st.integers(0, 3), st.integers(0, 2**32 - 1))
    def test_equals_the_lone_search_of_every_segment_bit_for_bit(self, align, scenario, n_active, seed):
        users, layout, params, grid_points = scenario
        n_active = min(n_active, layout.num_segments - 1)
        table = grid_gain_table(users, layout, params, grid_points)
        rng = np.random.default_rng(seed)
        committed = rng.choice(layout.num_segments, n_active, replace=False).tolist()
        points = [int(rng.integers(grid_points)) for _ in committed]
        positions = np.array([table[m][0][i] for m, i in zip(committed, points)])
        gains = np.zeros((users.num_users, n_active), dtype=complex)
        for j, (m, i) in enumerate(zip(committed, points)):
            gains[:, j] = table[m][1][:, i]
        aggregate = gains @ np.exp(1j * rng.uniform(0.0, TWO_PI, n_active))
        free = [False if m in committed else _free_points(grid, positions, params.min_spacing_m)
                for m, (grid, _) in enumerate(table)]
        searchable = [m for m, f in enumerate(free) if f is not False]
        if not searchable:
            return
        found, columns, snrs = _level_search(table, free, searchable, aggregate, n_active, users, params, align)
        lone = [aligned_grid_point(*table[m], free[m], aggregate, n_active, users, params, align)
                for m in searchable]
        assert np.array(found).tobytes() == np.array([pos for pos, _, _ in lone]).tobytes()
        assert np.stack(columns).tobytes() == np.stack([column for _, _, column in lone]).tobytes()
        assert [float(np.log2(1.0 + snr)) for snr in snrs] == [rate for _, rate, _ in lone]

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(1, 4), st.integers(2, 60), st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_rounding_decides_ties_as_in_the_lone_search(self, num_segments, grid_points, n_active, seed):
        # One user and gains of one amplitude: alignment gives every grid
        # point the same exact SNR, so only the rounding of each operation
        # picks the winner, and any change in it shows as another position.
        rng = np.random.default_rng(seed)
        params = params_28ghz(min_spacing_m=0.3)
        users = UserSet(x=[0.0], y=[1.0], power_w=[10.0 ** rng.uniform(-4.0, 0.0)])
        table = [(np.linspace(m, m + 1.0, grid_points),
                  1e-4 * np.exp(1j * rng.uniform(0.0, TWO_PI, (1, grid_points)))) for m in range(num_segments)]
        free = [None if rng.random() < 0.5 else rng.random(grid_points) < 0.7 for _ in table]
        searchable = [m for m, f in enumerate(free) if f is None or f.any()]
        if not searchable:
            return
        aggregate = 1e-4 * (rng.normal(size=1) + 1j * rng.normal(size=1))
        found, columns, _ = _level_search(table, free, searchable, aggregate, n_active, users, params, True)
        lone = [aligned_grid_point(*table[m], free[m], aggregate, n_active, users, params, True) for m in searchable]
        assert found == [pos for pos, _, _ in lone]
        assert np.stack(columns).tobytes() == np.stack([column for _, _, column in lone]).tobytes()


def outcome(fn, *args, **kwargs):
    """The result of a call, or the type and message of the ValueError it raised."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        return ValueError, str(exc)


def full_activation_exists(layout, params, grid_points):
    """Whether every segment can hold an antenna on its grid, spacing kept.

    Placing the segments left to right, each at its leftmost grid point clear
    of the ones before, succeeds whenever any feasible placement does.
    """
    placed = []
    for m in range(layout.num_segments):
        free = [x for x in candidate_grid(m, layout, grid_points)
                if all(abs(x - p) >= params.min_spacing_m for p in placed)]
        if not free:
            return False
        placed.append(free[0])
    return True


class TestSharedTable:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(greedy_scenarios(min_segments=1, max_grid=30))
    def test_results_do_not_depend_on_who_builds_the_table(self, scenario):
        users, layout, params, q = scenario
        seg_len, height = layout.segment_length_m, layout.height_m
        # One user set's cache filled by the scenario's layout, a layout it
        # nests in (one more segment) and a layout of 0.3 m segments.
        nesting = WaveguideLayout(layout.num_segments + 1, seg_len, height, layout.start_x)
        layouts = (layout, nesting, build_centered_layout(layout.num_segments, 0.3, height))
        for lay in layouts:
            assert greedy_hssa_type1(users, lay, params, q) == greedy_hssa_type1(fresh(users), lay, params, q)
            assert greedy_hssa_type2(users, lay, params, q) == greedy_hssa_type2(fresh(users), lay, params, q)
            for variant in ("type1", "type2"):
                shared = outcome(full_sa_baseline, users, lay, params, q, variant)
                assert shared == outcome(full_sa_baseline, fresh(users), lay, params, q, variant)
        # One grid entry per distinct interval.
        intervals = {(*lay.segment_interval(m), height, q, params) for lay in layouts for m in range(lay.num_segments)}
        assert {key for key in users.cache if key[0] != "midpoint"} == intervals


class TestUserSetCache:
    SCHEMES = {
        "hssa-1": lambda users, layout, params, q: greedy_hssa_type1(users, layout, params, q).best_rate,
        "hssa-2": lambda users, layout, params, q: greedy_hssa_type2(users, layout, params, q).best_rate,
        "full-sa-1": lambda users, layout, params, q: full_sa_baseline(users, layout, params, q, "type1")[1],
        "full-sa-2": lambda users, layout, params, q: full_sa_baseline(users, layout, params, q, "type2")[1],
        "bound-exact": lambda users, layout, params, q: exact_amplitude_bound(users, layout, params),
    }

    def test_calls_with_other_inputs_get_fresh_bits(self):
        # Keyed by the segment interval alone, the 1000-point calls got the 50-point gains, the
        # attenuated calls the unattenuated ones, and the lower layout the higher one's.
        users = sample_users(3, 4.0, 20.0, 0.01, 5)  # inside the 4 m waveguide, for the bound
        for kappa in (0.0, 0.5):
            params = SystemParams(28e9, 1.4, 1e-12, kappa_db_per_m=kappa)
            for height in (3.0, 2.0):
                layout = build_centered_layout(4, 1.0, height)
                for q in (50, 1000):
                    for name, rate in self.SCHEMES.items():
                        assert (rate(users, layout, params, q).hex()
                                == rate(fresh(users), layout, params, q).hex()), (name, kappa, height, q)


class TestKeptMaskDescent:
    @staticmethod
    def hexed(result):
        """A baseline outcome with every float as its hex string, or the raised ValueError."""
        if isinstance(result, tuple) and isinstance(result[0], Placement):
            placement, rate = result
            return (placement.active, tuple(x.hex() for x in placement.positions),
                    tuple(x.hex() for x in placement.phases), rate.hex())
        return result

    @settings(max_examples=200, deadline=None, derandomize=True)
    # Found by search: here a mask left stale around a moved antenna's old spot changes the descent.
    @example(scenario(1, 5, 0.3, 1.0, 0.5, 0.0, 1.5, 827, 0.5449790683957807, 2))
    @given(greedy_scenarios(
        min_segments=1, max_grid=60,
        spacing=st.sampled_from([0.005, 0.3, 0.7, 1.0, 1.2, 1.5, 2.5]),
        kappa=st.sampled_from([0.0, 0.05, 1.0]),
        seg_len=st.one_of(st.just(0.3), st.floats(0.2, 2.0))))
    def test_equals_rescanning_every_mask_bit_for_bit(self, scenario):
        # Spacings above one segment length start from the leftmost placement
        # or find none; the two variants share the user set's cache, as in a sweep.
        users, layout, params, q = scenario
        for variant in ("type1", "type2"):
            kept = outcome(full_sa_baseline, users, layout, params, q, variant)
            assert self.hexed(kept) == self.hexed(outcome(full_sa_rescan, fresh(users), layout, params, q, variant))


class TestPlacementValidity:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(greedy_scenarios(
        min_segments=1, max_grid=50,
        spacing=st.one_of(st.sampled_from([0.5, 1.0, 1.5, 2.0, 2.5]), st.floats(1e-6, 2.5)),
        kappa=st.floats(0.0, 20.0), noise_exponent=st.floats(-20.0, 6.0)))
    def test_every_placement_is_valid_and_every_rate_finite(self, scenario):
        users, layout, params, q = scenario
        for search in (greedy_hssa_type1, greedy_hssa_type2):
            trace = search(users, layout, params, q)
            for lvl in trace.levels:
                lvl.placement.validate(layout, params)
                assert math.isfinite(lvl.rate)
            assert trace.best_rate >= trace.levels[-1].rate
        feasible = full_activation_exists(layout, params, q)
        for variant in ("type1", "type2"):
            if not feasible:
                with pytest.raises(ValueError, match="no grid placement"):
                    full_sa_baseline(users, layout, params, q, variant)
                continue
            placement, rate = full_sa_baseline(users, layout, params, q, variant)
            placement.validate(layout, params)
            assert placement.active == tuple(range(layout.num_segments))
            assert math.isfinite(rate)
            assert rate == pytest.approx(placement_sum_rate(users, placement, layout, params), rel=1e-9)


class TestFullSegmentAggregationBaseline:
    def setup_method(self):
        self.params = params_28ghz()

    def test_single_segment_equals_grid_placement(self):
        lay = build_centered_layout(1, 1.0, 3.0)
        users = sample_users(2, 0.9, 6.0, 0.01, 149)
        pos, rate, _ = place(0, empty_placement(), users, lay, self.params, 51)
        placement, sa_rate = full_sa_baseline(users, lay, self.params, 51, "type1")
        assert placement.positions[0] == pos
        assert sa_rate == pytest.approx(rate, rel=1e-12)

    def test_rate_never_drops_below_midpoint_start(self):
        lay = build_centered_layout(2, 1.0, 3.0)
        users = sample_users(1, 2.0, 8.0, 0.01, 151)
        start = Placement(active=(0, 1), positions=(-0.5, 0.5), phases=(0.0, 0.0))
        initial = placement_sum_rate(users, start, lay, self.params)
        for variant in ("type1", "type2"):
            placement, rate = full_sa_baseline(users, lay, self.params, 41, variant)
            placement.validate(lay, self.params)
            assert rate >= initial - 1e-12
            assert rate == pytest.approx(placement_sum_rate(users, placement, lay, self.params), rel=1e-10)

    def test_type2_on_average_below_greedy_best_level(self):
        lay = build_centered_layout(8, 1.0, 3.0)
        diffs = []
        for seed in range(50):
            users = sample_users(4, 8.0, 20.0, 0.01, [757, seed])
            greedy = greedy_hssa_type2(users, lay, self.params, 60).best_rate
            baseline = full_sa_baseline(users, lay, self.params, 60, "type2")[1]
            diffs.append(greedy - baseline)
        assert np.mean(diffs) >= 0.0

    def test_deterministic_reruns(self):
        lay = build_centered_layout(4, 1.0, 3.0)
        users = sample_users(3, 4.0, 10.0, 0.01, 157)
        a = full_sa_baseline(users, lay, self.params, 33, "type2")
        b = full_sa_baseline(users, lay, self.params, 33, "type2")
        assert a[1] == b[1]
        assert a[0].positions == b[0].positions and a[0].phases == b[0].phases

    def test_unknown_variant_rejected(self):
        lay = build_centered_layout(2, 1.0, 3.0)
        users = sample_users(1, 2.0, 4.0, 0.01, 163)
        with pytest.raises(ValueError):
            full_sa_baseline(users, lay, self.params, 20, "type3")


class TestSmallInstanceOptimality:
    def test_greedy_close_to_exhaustive_optimum(self):
        params = params_28ghz()
        lay = build_centered_layout(3, 1.0, 3.0)
        for seed in range(5):
            users = sample_users(2, 3.0, 20.0, 0.01, [515, seed])
            best = exhaustive_zero_phase_rate(users, lay, params, 15)
            greedy = greedy_hssa_type1(users, lay, params, 15).best_rate
            assert greedy >= 0.9 * best
