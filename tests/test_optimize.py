"""Greedy activation, phase alternating optimization, full-activation baseline."""

import math

import numpy as np
import pytest

from swanopt.channel import cascaded_gain_matrix, placement_sum_rate, segment_gains
from swanopt.geometry import Placement, SystemParams, build_centered_layout, sample_users
from swanopt.optimize import (
    GreedyTrace,
    SegmentInfeasibleError,
    _best_grid_point,
    _element_update,
    _infeasible_mask,
    build_phase_matrix,
    candidate_grid,
    full_sa_baseline,
    greedy_hssa_type1,
    greedy_hssa_type2,
    phase_alternating_opt,
    quadratic_objective,
)

TWO_PI = 2 * np.pi


def params_28ghz(**kw):
    defaults = dict(carrier_freq_hz=28e9, n_eff=1.4, noise_power_w=1e-12)
    defaults.update(kw)
    return SystemParams(**defaults)


def random_matrix(rng, num_segments, num_users):
    gains = rng.normal(size=(num_users, num_segments)) + 1j * rng.normal(size=(num_users, num_segments))
    powers = rng.uniform(0.001, 0.02, num_users)
    return (gains * powers[:, None]).T @ np.conj(gains), gains, powers


def place(segment, current, users, layout, params, grid_points, align=False):
    """(position, rate, gain column) of the best grid point against a committed placement."""
    aggregate = np.zeros(users.num_users, dtype=complex)
    if current.active:
        aggregate = cascaded_gain_matrix(users, current, layout, params) @ np.exp(1j * current.phase_array())
    return _best_grid_point(segment, current.position_array(), aggregate, current.num_active,
                            users, layout, params, grid_points, align)


class TestCandidateGrid:
    def setup_method(self):
        self.layout = build_centered_layout(12, 1.0, 3.0, region_center_x=11.0)

    def test_two_points_are_the_endpoints(self):
        lay = build_centered_layout(2, 1.0, 3.0, region_center_x=1.0)
        assert list(candidate_grid(0, lay, 2)) == [0.0, 1.0]

    def test_eleven_points_tenth_steps(self):
        lay = build_centered_layout(2, 1.0, 3.0, region_center_x=1.0)
        assert candidate_grid(0, lay, 11) == pytest.approx(np.arange(0, 1.05, 0.1), abs=1e-12)

    def test_thousand_points_span_and_spacing(self):
        grid = candidate_grid(0, self.layout, 1000)
        assert grid[0] == 5.0 and grid[-1] == 6.0
        assert np.allclose(np.diff(grid), 1.0 / 999.0, rtol=1e-9)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            candidate_grid(0, self.layout, 1)


class TestInfeasiblePoints:
    def test_empty_placement_excludes_nothing(self):
        grid = np.array([0.0, 0.5, 0.9, 1.1])
        assert not _infeasible_mask(grid, Placement.empty().position_array(), 0.2).any()

    def test_points_near_placed_antenna_excluded(self):
        lay = build_centered_layout(4, 1.0, 3.0, region_center_x=2.0)
        placed = Placement.empty().with_segment(0, 1.0)
        grid = np.array([0.0, 0.5, 0.9, 1.1])
        assert list(grid[_infeasible_mask(grid, placed.position_array(), 0.2)]) == [0.9, 1.1]

    def test_exclusion_count_bounded_on_uniform_grid(self):
        # A neighbor antenna parked at a shared edge can knock out at most
        # ceil(delta * (Q - 1) / L) + 1 points of the adjacent segment's grid.
        params = params_28ghz()
        lay = build_centered_layout(2, 1.0, 3.0, region_center_x=1.0)
        placed = Placement.empty().with_segment(0, 1.0)
        for q in (100, 1000):
            grid = candidate_grid(1, lay, q)
            excluded = _infeasible_mask(grid, placed.position_array(), params.min_spacing_m)
            cap = math.ceil(params.min_spacing_m * (q - 1) / 1.0) + 1
            assert 1 <= excluded.sum() <= cap


class TestPlaceInSegment:
    def setup_method(self):
        self.params = params_28ghz()
        self.layout = build_centered_layout(3, 1.0, 3.0)

    def test_single_user_lands_within_one_grid_step_of_projection(self):
        users = sample_users(1, 0.8, 6.0, 0.01, 41)
        pos, _, _ = place(1, Placement.empty(), users, self.layout, self.params, 101)
        step = 1.0 / 100.0
        assert abs(pos - users.x[0]) <= step

    def test_phase_mode_immaterial_for_first_antenna(self):
        users = sample_users(2, 2.5, 10.0, 0.01, 43)
        pos_none, rate_none, col_none = place(0, Placement.empty(), users, self.layout, self.params, 40)
        pos_align, rate_align, col_align = place(0, Placement.empty(), users, self.layout, self.params, 40, True)
        assert (pos_none, rate_none) == (pos_align, rate_align)
        assert np.array_equal(col_none, col_align)

    def test_returned_point_beats_every_feasible_grid_point(self):
        users = sample_users(3, 2.5, 12.0, 0.01, 47)
        current = Placement.empty().with_segment(0, -1.2).with_segment(2, 0.8)
        pos, rate, column = place(1, current, users, self.layout, self.params, 50)
        assert np.array_equal(column, segment_gains(users, 1, pos, self.layout, self.params))
        grid = candidate_grid(1, self.layout, 50)
        bad = set(grid[_infeasible_mask(grid, current.position_array(), self.params.min_spacing_m)].tolist())
        for x in grid:
            if float(x) in bad:
                continue
            trial = current.with_segment(1, float(x))
            assert rate >= placement_sum_rate(users, trial, self.layout, self.params) - 1e-12
        best = current.with_segment(1, pos)
        assert rate == pytest.approx(placement_sum_rate(users, best, self.layout, self.params), rel=1e-12)

    def test_aligned_mode_maximizes_single_element_alignment(self):
        users = sample_users(3, 2.5, 12.0, 0.01, 53)
        current = Placement.empty().with_segment(0, -1.2, phase=0.7).with_segment(2, 0.8, phase=2.1)
        pos, rate, _ = place(1, current, users, self.layout, self.params, 40, True)
        g_cur = cascaded_gain_matrix(users, current, self.layout, self.params)
        agg = g_cur @ np.exp(1j * current.phase_array())
        grid = candidate_grid(1, self.layout, 40)
        best = -np.inf
        best_x = None
        for x in grid:
            g = segment_gains(users, 1, float(x), self.layout, self.params)
            s = np.sum(users.power_w * g * np.conj(agg))
            v = 1.0 if s == 0 else np.exp(-1j * np.angle(s))
            snr = np.sum(users.power_w * np.abs(agg + v * g) ** 2) / 3.0 / self.params.noise_power_w
            r = np.log2(1.0 + snr)
            if r > best:
                best, best_x = r, float(x)
        assert pos == best_x
        assert rate == pytest.approx(best, rel=1e-12)

    def test_fully_blocked_segment_raises(self):
        params = params_28ghz(min_spacing_m=2.5)
        lay = build_centered_layout(2, 1.0, 3.0)
        users = sample_users(1, 1.5, 4.0, 0.01, 3)
        current = Placement.empty().with_segment(0, -0.5)
        with pytest.raises(SegmentInfeasibleError):
            place(1, current, users, lay, params, 20)


class TestGreedyTypeOne:
    def setup_method(self):
        self.params = params_28ghz()

    def test_single_segment_trace(self):
        lay = build_centered_layout(1, 1.0, 3.0)
        users = sample_users(1, 0.9, 5.0, 0.01, 61)
        trace = greedy_hssa_type1(users, lay, self.params, 60)
        assert len(trace.levels) == 1 and trace.best_level == 1
        pos, rate, _ = place(0, Placement.empty(), users, lay, self.params, 60)
        assert trace.levels[0].position == pos and trace.levels[0].rate == rate

    def test_first_pick_matches_single_segment_oracle(self):
        lay = build_centered_layout(3, 1.0, 3.0)
        users = sample_users(1, 0.9, 8.0, 0.01, 67)  # projection inside the middle segment
        per_segment = [place(m, Placement.empty(), users, lay, self.params, 80)[1]
                       for m in range(3)]
        trace = greedy_hssa_type1(users, lay, self.params, 80)
        assert trace.levels[0].segment == int(np.argmax(per_segment)) == 1

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
        for lvl in trace.levels:
            lvl.placement.validate(lay, self.params)
            assert lvl.placement.num_active == lvl.level
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
        assert trace.levels[1].segment is None
        assert trace.best_level == 1

    def test_bit_identical_reruns(self):
        lay = build_centered_layout(6, 1.0, 3.0)
        users = sample_users(4, 6.0, 14.0, 0.01, 83)
        a = greedy_hssa_type1(users, lay, self.params, 50)
        b = greedy_hssa_type1(users, lay, self.params, 50)
        for la, lb in zip(a.levels, b.levels):
            assert la.segment == lb.segment
            assert la.position == lb.position
            assert la.rate == lb.rate


class TestPhaseMatrix:
    def setup_method(self):
        self.params = params_28ghz()
        self.layout = build_centered_layout(4, 1.0, 3.0)

    def test_single_user_two_segments_is_rank_one(self):
        users = sample_users(1, 3.0, 6.0, 0.01, 89)
        pl = Placement.empty().with_segment(0, -1.6).with_segment(2, 0.4)
        pm = build_phase_matrix(cascaded_gain_matrix(users, pl, self.layout, self.params), users.power_w)
        g = cascaded_gain_matrix(users, pl, self.layout, self.params)[0]
        expected = 0.01 * np.outer(g, np.conj(g))
        assert pm == pytest.approx(expected, rel=1e-12)
        s = np.linalg.svd(pm, compute_uv=False)
        assert s[1] <= 1e-12 * s[0]

    def test_hermitian_with_real_nonnegative_diagonal(self):
        users = sample_users(5, 4.0, 10.0, 0.01, 97)
        pl = Placement.empty()
        for m in range(4):
            lo, hi = self.layout.segment_interval(m)
            pl = pl.with_segment(m, (lo + hi) / 2 + 0.01 * m)
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
                    v[m] = _element_update(pm, v, m)
                    new = quadratic_objective(pm, v)
                    assert new >= obj - 1e-13 * max(abs(obj), 1.0)
                    obj = new

    def test_single_user_converges_to_analytic_alignment(self):
        params = params_28ghz()
        lay = build_centered_layout(8, 1.0, 3.0)
        rng = np.random.default_rng(107)
        for trial in range(10):
            users = sample_users(1, 8.0, 10.0, 0.01, [991, trial])
            pl = Placement.empty()
            for m in range(8):
                lo, hi = lay.segment_interval(m)
                pl = pl.with_segment(m, float(rng.uniform(lo, hi)))
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
        with pytest.raises(ValueError):
            phase_alternating_opt(pm, init=np.array([1.0, 0.5]))


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
        assert t1.levels[0].segment == t2.levels[0].segment
        assert t1.levels[0].position == t2.levels[0].position
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


class TestFullSegmentAggregationBaseline:
    def setup_method(self):
        self.params = params_28ghz()

    def test_single_segment_equals_grid_placement(self):
        lay = build_centered_layout(1, 1.0, 3.0)
        users = sample_users(2, 0.9, 6.0, 0.01, 149)
        pos, rate, _ = place(0, Placement.empty(), users, lay, self.params, 51)
        placement, sa_rate = full_sa_baseline(users, lay, self.params, 51, "type1")
        assert placement.positions[0] == pos
        assert sa_rate == pytest.approx(rate, rel=1e-12)

    def test_rate_never_drops_below_midpoint_start(self):
        lay = build_centered_layout(2, 1.0, 3.0)
        users = sample_users(1, 2.0, 8.0, 0.01, 151)
        start = Placement(active=(0, 1), positions={0: -0.5, 1: 0.5}, phases={0: 0.0, 1: 0.0})
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
        import itertools

        params = params_28ghz()
        lay = build_centered_layout(3, 1.0, 3.0)
        for seed in range(5):
            users = sample_users(2, 3.0, 20.0, 0.01, [515, seed])
            grids = [candidate_grid(m, lay, 15) for m in range(3)]
            best = 0.0
            for size in (1, 2, 3):
                for subset in itertools.combinations(range(3), size):
                    for tup in itertools.product(*[grids[m] for m in subset]):
                        if any(abs(a - b) < params.min_spacing_m
                               for a, b in itertools.combinations(tup, 2)):
                            continue
                        pl = Placement(tuple(subset), dict(zip(subset, map(float, tup))),
                                       {m: 0.0 for m in subset})
                        best = max(best, placement_sum_rate(users, pl, lay, params))
            greedy = greedy_hssa_type1(users, lay, params, 15).best_rate
            assert greedy >= 0.9 * best
