"""Greedy joint segment activation / antenna placement and phase optimization.

One greedy loop (`_greedy`) serves both architectures. It runs all M
activation levels, commits each level's winning antenna and keeps every
level in the trace; the caller reads off the best stored level, so full
activation can never win by omission. The architecture enters only as the
level function that picks the winner: `_switch_only_level` scores candidate
segments with all phases at zero, and `_phase_shifter_level` re-optimizes
the full phase vector for every candidate through element-wise alternating
optimization and returns the converged phases of the winner. Each also
returns the `GreedyTrace` counts of its work, which the loop sums.

A coordinate-descent baseline over the fully activated layout is included
for comparison: repeated index-order sweeps re-optimize one antenna position
at a time over its feasible grid, with an optional phase re-optimization
after each sweep.

One level search serves both greedy searches: `_level_search` grid-searches
a stack of segments for each one's best trial position, at zero phase for
the switch-only search, which passes one segment at a time, or with the
trial phase aligned to the committed antennas for the phase-shifter search,
which passes all of a level's segments at once. One AO kernel serves both
phase-shifter schemes. It runs on a stack of phase matrices whose problems
leave the stack as they converge, so every problem gets the bits it gets
alone, and it exponentiates each new phase straight into conj(v), with the
bits of conjugating the update. The phase-shifter search runs it on all of
a level's candidates at once; the baseline runs it on a stack of one,
warm-started, through `phase_alternating_opt`. Every optimizer reads its
grid gains through `grid_gain_table`: computed once per user set and
distinct segment interval, height, grid size and params, and kept in the
user set's `cache`.

All three searches keep one spacing mask per segment (`_free_points`) and,
after an antenna is placed or moved, rebuild the masks of the segments less
than two spacings from its old or new position (`_segments_near`). Only the
switch-only search prunes: a segment's largest gain amplitude per user over
its whole grid caps its rate at every feasible grid point (triangle
inequality), the cap is widened by BOUND_MARGIN for rounding, and segments
are grid-searched in descending cap order until the next cap's rate is
below the incumbent's, which returns the exhaustive search's winner. The
phase-shifter search grid-searches every segment, because every candidate
enters its AO stack.

Determinism: ties between candidate segments resolve to the smallest segment
index, ties between grid points to the smallest coordinate, and phase updates
run in ascending index order. Identical inputs give bit-identical traces.
"""

from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

# Unused here, but perfbench/spans.py patches optimize.cascaded_gain_matrix by name.
from .channel import cascaded_gain_matrix, segment_gains  # noqa: F401
from .geometry import Placement, WaveguideLayout

TWO_PI = 2.0 * np.pi
# Sweep cap of the full-activation baseline's coordinate descent.
FULL_SA_MAX_SWEEPS = 100
# Relative widening of the switch-only search's rate cap, far above the
# few-ulp rounding of a computed rate and of its cap.
BOUND_MARGIN = 1e-9


@dataclass(frozen=True)
class TraceLevel:
    """One greedy iteration: the placement after it and that placement's rate.

    The level's committed antenna is the placement's last one. Degenerate
    levels occur when no remaining segment had a feasible grid point; they
    repeat the previous level's placement and rate.
    """

    placement: Placement
    rate: float
    degenerate: bool = False


@dataclass(frozen=True)
class GreedyTrace:
    """All activation levels generated by one greedy run.

    `grid_searches` counts the per-segment grid searches that ran. The
    phase-shifter search also counts its AO work: the problems solved, the
    sum of their sweeps, and the problems of more than one element that
    stopped at the sweep cap. The switch-only search leaves them at 0.
    """

    levels: tuple[TraceLevel, ...]
    ao_runs: int = 0
    ao_sweeps: int = 0
    ao_cap_hits: int = 0
    grid_searches: int = 0

    @property
    def best(self) -> TraceLevel:
        return self.levels[self.best_level - 1]

    @property
    def best_level(self) -> int:
        """The best level's 1-based index in `levels`, the first of equal rates."""
        return max(range(1, len(self.levels) + 1), key=lambda i: self.levels[i - 1].rate)

    @property
    def best_rate(self) -> float:
        return self.best.rate


class PhaseOptResult(NamedTuple):
    phases: np.ndarray
    objective: float
    iterations: int


def candidate_grid(segment: int, layout: WaveguideLayout, grid_points: int) -> np.ndarray:
    """Uniform grid of `grid_points` positions spanning a segment, ends included."""
    if grid_points < 2:
        raise ValueError("grid_points must be at least 2")
    lo, hi = layout.segment_interval(segment)
    return np.linspace(lo, hi, grid_points)


def _infeasible_mask(grid: np.ndarray, positions: np.ndarray, min_spacing_m: float) -> np.ndarray:
    """Grid points closer than `min_spacing_m` to some position; `grid` is ascending.

    Only positions less than twice the spacing outside the grid's span are
    compared. A dropped position p has grid[0] - p (or p - grid[-1]) of at
    least twice the spacing after rounding, and rounding is monotone, so
    every grid point's rounded distance to p is at least that: the mask is
    the all-pairs comparison's, bit for bit.
    """
    reach = 2.0 * min_spacing_m
    near = positions[(grid[0] - positions < reach) & (positions - grid[-1] < reach)]
    return (np.abs(grid[:, None] - near[None, :]) < min_spacing_m).any(axis=1)


def _free_points(grid, positions, min_spacing_m):
    """None when every grid point is clear of `positions`, else the boolean mask of the clear points, or False."""
    blocked = _infeasible_mask(grid, positions, min_spacing_m)
    return None if not blocked.any() else False if blocked.all() else ~blocked


def _segments_near(grid_ends, xs, min_spacing_m):
    """Segments whose grids (first and last points, a (2, M) array) are less than two spacings from some x."""
    lo, hi = grid_ends
    near = np.zeros(lo.size, dtype=bool)
    for x in xs:
        near |= (lo - x < 2.0 * min_spacing_m) & (x - hi < 2.0 * min_spacing_m)
    return np.flatnonzero(near).tolist()


def _cached(cache, key, compute):
    """`compute()`, kept in the dict `cache` under `key`."""
    if key not in cache:
        cache[key] = compute()
    return cache[key]


def grid_gain_table(users, layout, params, grid_points) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per segment, its candidate grid and the (K, Q) gains at every grid point.

    The gains do not depend on the other antennas, so one table serves every
    level of a greedy run and every sweep of the baseline; it costs
    M * K * Q * 16 bytes. Slicing a block gives the bits `segment_gains`
    returns on the same subset, because the kernel is elementwise.

    A segment's entry depends on the layout only through its interval and
    height, so `users.cache` keeps it under (*interval, height, grid_points,
    params) and hands it to every call and layout with those inputs.
    """
    def entry(m):
        grid = candidate_grid(m, layout, grid_points)
        return grid, segment_gains(users, m, grid, layout, params)

    return [_cached(users.cache, (*layout.segment_interval(m), layout.height_m, grid_points, params),
                    lambda: entry(m)) for m in range(layout.num_segments)]


def _level_search(table, free, searchable, aggregate, n_active, users, params, align):
    """Lists of the position, gain column (K,) and SNR of each searchable segment's best grid point.

    `free[m]` is segment m's `_free_points` mask, and `aggregate` holds the
    per-user unnormalized channel sums of the n_active committed antennas.
    The trial antenna's phase is zero, or with `align` the single-element
    optimum against `aggregate`. The (S, K, Q) stack takes the elementwise
    operations, in their operand order, that give one segment's free points
    their bits (`aligned_grid_point` in the tests' oracles); blocked points
    score -1, below every free point.
    """
    blocks = [table[m][1] for m in searchable]
    h = np.array(blocks)  # np.stack costs more per call, and the switch-only search calls with one block
    if align and n_active:
        # A complex product's bits depend on its operand order, so no step swaps it.
        np.multiply(users.power_w[:, None], h, out=h)
        h *= np.conj(aggregate)[:, None]
        s = h.sum(axis=1)
        v = np.exp(-1j * np.arctan2(s.imag, s.real))  # np.angle's arithmetic
        v[s == 0] = 1.0
        # Restacked rather than kept beside h: one (S, K, Q) array at a time.
        np.multiply(v[:, None, :], np.stack(blocks, out=h), out=h)
    h += aggregate[:, None]
    # NumPy divides by a real-valued complex through its reciprocal, so this
    # gives the magnitudes that dividing by sqrt(n + 1) gives, bit for bit.
    h *= 1.0 / np.sqrt(n_active + 1)
    received = np.abs(h)
    np.square(received, out=received)
    received *= users.power_w[:, None]
    snr = received.sum(axis=1)
    snr /= params.noise_power_w
    for i, m in enumerate(searchable):
        if free[m] is not None:
            snr[i, ~free[m]] = -1.0
    best = snr.argmax(axis=1).tolist()
    return ([float(table[m][0][j]) for m, j in zip(searchable, best)],
            [block[:, j] for block, j in zip(blocks, best)], [snr[i, j] for i, j in enumerate(best)])


def build_phase_matrix(gains: np.ndarray, power_w: np.ndarray) -> np.ndarray:
    """Hermitian matrix A of the phase problem from a (K, S) gain matrix, or a (..., K, S) stack.

    A[m, n] = sum_k P_k g_{k,m} conj(g_{k,n}); the sum-rate objective of a
    unit-modulus phase vector v is the quadratic form v^T A v*.
    """
    return np.matmul((gains * power_w[:, None]).swapaxes(-1, -2), np.conj(gains))


def _wrap_phases(v: np.ndarray) -> np.ndarray:
    # Tiny negative angles round up to exactly 2*pi under np.mod; keep [0, 2*pi).
    phases = np.mod(np.angle(v), TWO_PI)
    phases[phases >= TWO_PI] = 0.0
    return phases


def phase_alternating_opt(a: np.ndarray, init=None, tol: float = 1e-8, max_iter: int = 100) -> PhaseOptResult:
    """Element-wise alternating maximization of the unit-modulus quadratic form.

    Starts from `init` (all-zero phases when omitted) and sweeps the entries
    in ascending index order; every single-element update is the exact
    optimum given the others, so the objective never decreases. Stops when
    the relative objective improvement over a full sweep drops below `tol`
    or after `max_iter` sweeps. Returns phases in [0, 2*pi). This is
    `_stacked_ao` on a stack of one.
    """
    s = a.shape[0]
    if init is not None:
        init = np.asarray(init, dtype=complex)
        if init.shape != (s,):
            raise ValueError("init length must match the matrix size")
        if not np.all(np.abs(np.abs(init) - 1.0) <= 1e-9):  # NaN fails too
            raise ValueError("init entries must be unit-modulus")
        init = init[None]
    phases, objectives, iterations = _stacked_ao(a[None], tol, max_iter, init)
    return PhaseOptResult(phases[0], float(objectives[0]), int(iterations[0]))


def _stacked_ao(a: np.ndarray, tol: float, max_iter: int, init=None):
    """Element-wise alternating optimization of every matrix of a (C, S, S) stack.

    Problem i starts from the unit-modulus row `init[i]` of a (C, S) array,
    or from zero phases when `init` is None. Returns the phases (C, S),
    objectives (C,) and iteration counts (C,). All problems sweep together
    and a problem leaves the stack once it stops, so each gets the bits it
    gets alone. The element dot is a stacked matmul, which gives np.dot's
    bits, and the diagonal term is written out in real arithmetic, because
    an array complex multiply fuses multiply-adds and rounds differently
    from the scalar product. Within a sweep only conj(v) is kept current:
    an element's new entry is exp(0 + i theta) of its coefficient's angle,
    written straight into conj(v), which has the bits of the conjugated
    update conj(exp(-1j * theta)). An update makes five NumPy calls into
    buffers and views that are built once per stack size.
    """
    count, s, _ = a.shape
    v = np.ones((count, s), dtype=complex) if init is None else np.array(init, dtype=complex)
    iterations = np.zeros(count, dtype=int)
    if s == 1:
        return _wrap_phases(v), a[:, 0, 0].real.copy(), iterations

    def objective(a, v, conj_v):
        return np.matmul(v[:, None, :], np.matmul(a, conj_v[:, :, None]))[:, 0, 0].real

    obj = objective(a, v, np.conj(v))
    # The live problems: their indices, matrices, phase vectors and objectives.
    live, la, lv, lobj = np.arange(count), a, v.copy(), obj.copy()
    conj_v = np.conj(lv)
    refresh = True
    for sweep in range(1, max_iter + 1):
        if refresh:  # views and buffers of the live stack, built once per stack size
            rows = [la[:, m, None, :] for m in range(s)]
            diag = la.diagonal(axis1=1, axis2=2)
            d_re, d_im = diag.real.T, diag.imag.T
            column, entries = conj_v[:, :, None], list(conj_v.T)
            cv_re, cv_im = conj_v.real.T, conj_v.imag.T
            own = np.empty((s, live.size), dtype=complex)
            own_rows = list(own)
            dot = np.empty((live.size, 1, 1), dtype=complex)
            coef = dot[:, 0, 0]
            c_re, c_im = coef.real, coef.imag
            # theta goes in unmultiplied: exp(0 + i theta) has the bits of conj(exp(-1j * theta)),
            # signed zeros included, and exp(1j * theta) loses the sign of theta = -0.0.
            theta = np.zeros(live.size, dtype=complex)
            angle = theta.imag
        # Element m's own term A[m, m] conj(v[m]) reads v[m] from before the sweep: form them all now.
        own.real = d_re * cv_re - d_im * cv_im
        own.imag = d_re * cv_im + d_im * cv_re
        # Element m aligns with its coefficient sum_{n != m} A[m, n] conj(v[n]).
        for m in range(s):
            np.matmul(rows[m], column, out=dot)
            coef -= own_rows[m]
            np.arctan2(c_im, c_re, out=angle)
            where = True
            if np.count_nonzero(c_re) < c_re.size:  # a zero coefficient leaves the element unchanged
                where = (c_re != 0) | (c_im != 0)
            np.exp(theta, out=entries[m], where=where)
        np.conjugate(conj_v, out=lv)
        new_obj = objective(la, lv, conj_v)
        stopped = new_obj - lobj <= tol * np.maximum(np.abs(lobj), 1e-300)
        obj[live] = new_obj
        iterations[live] = sweep
        lobj = new_obj
        refresh = stopped.any()
        if refresh:
            v[live[stopped]] = lv[stopped]
            kept = ~stopped
            live, la, lv, conj_v, lobj = live[kept], la[kept], lv[kept], conj_v[kept], lobj[kept]
            if not live.size:
                break
    v[live] = lv
    return _wrap_phases(v), obj, iterations


def _switch_only_level(table, free, searchable, aggregate, gains, users, params, *, peak):
    """Best (rate, segment, position, column, phases) of one switch-only level, and its `GreedyTrace` counts.

    Segments go in descending order of their cap sum_k P_k (|a_k| + peak[m, k])^2
    (see the module docstring) until a cap rate is below the incumbent's rate;
    ties go to the smallest segment, as in a search of every segment. Every
    phase stays zero.
    """
    n_active = gains.shape[1]
    caps = np.square(np.abs(aggregate) + peak[searchable]) @ users.power_w
    cap_rates = np.log2(1.0 + caps * (1.0 + BOUND_MARGIN) / ((n_active + 1) * params.noise_power_w))
    best = None
    searches = 0
    for i in np.argsort(-caps, kind="stable").tolist():
        if best is not None and cap_rates[i] < best[0]:
            break
        m = searchable[i]
        (pos,), (column,), (snr,) = _level_search(table, free, [m], aggregate, n_active, users, params, align=False)
        rate = float(np.log2(1.0 + snr))
        searches += 1
        if best is None or rate > best[0] or (rate == best[0] and m < best[1]):
            best = (rate, m, pos, column)
    return (*best, np.zeros(n_active + 1)), (0, 0, 0, searches)


def _phase_shifter_level(table, free, searchable, aggregate, gains, users, params, *, tol, max_iter):
    """Best (rate, segment, position, column, phases) of one phase-shifter level, and its `GreedyTrace` counts.

    Every searchable segment's aligned best grid point is a candidate, and
    AO runs on every candidate's trial matrix at once. The winner has the
    highest rate, ties going to the smallest segment; comparing rates rather
    than objectives matters at low SNR, where close objectives round to the
    same rate.
    """
    k, n = gains.shape
    positions, columns, _ = _level_search(table, free, searchable, aggregate, n, users, params, align=True)
    trials = np.empty((len(searchable), k, n + 1), dtype=complex)
    trials[:, :, :n], trials[:, :, n] = gains, columns  # the committed columns, then the candidate's
    phases, objectives, iterations = _stacked_ao(build_phase_matrix(trials, users.power_w), tol, max_iter)
    rates = np.log2(1.0 + objectives / ((n + 1) * params.noise_power_w))
    i = int(rates.argmax())  # the first of equal rates, so the smallest segment
    cap_hits = int(np.count_nonzero(iterations >= max_iter)) if n else 0  # problems of one element take no sweeps
    counts = (iterations.size, int(iterations.sum()), cap_hits, len(searchable))
    return (float(rates[i]), searchable[i], positions[i], columns[i], phases[i]), counts


def _greedy(users, layout, params, table, level) -> GreedyTrace:
    """Every activation level, each committing the winner that the architecture's `level` function picks."""
    # Committed state: the placement, in activation order, and the (K, S)
    # gain matrix whose columns are reused by every later level.
    placement = Placement((), (), ())
    gains = np.zeros((users.num_users, 0), dtype=complex)
    aggregate = np.zeros(users.num_users, dtype=complex)
    levels: list[TraceLevel] = []
    work = []  # each level's GreedyTrace counts: ao_runs, ao_sweeps, ao_cap_hits and grid_searches
    # Per segment, its `_free_points` mask of the committed antennas; False
    # also once committed (a segment takes no second antenna).
    free: list = [None] * len(table)
    grid_ends = np.array([layout.feed_x, layout.segment_ends])
    for _ in range(layout.num_segments):
        searchable = [m for m, f in enumerate(free) if f is not False]
        if not searchable:
            levels.append(TraceLevel(levels[-1].placement, levels[-1].rate, degenerate=True))
            continue
        (rate, m, pos, column, phases), counts = level(table, free, searchable, aggregate, gains, users, params)
        work.append(counts)
        placement = Placement(placement.active + (m,), placement.positions + (pos,), phases)
        free[m] = False
        for j in _segments_near(grid_ends, (pos,), params.min_spacing_m):
            if free[j] is not False:  # antennas only come, so a blocked segment stays blocked
                free[j] = _free_points(table[j][0], np.array(placement.positions), params.min_spacing_m)
        gains = np.concatenate([gains, column[:, None]], axis=1)
        aggregate = gains @ np.exp(1j * phases)
        levels.append(TraceLevel(placement, rate))
    return GreedyTrace(tuple(levels), *map(sum, zip(*work)))


def greedy_hssa_type1(users, layout, params, grid_points) -> GreedyTrace:
    """Greedy segment activation and placement for the switch-only architecture.

    At every level the inactive segments are trial-placed with a 1-d grid
    search, skipping those whose rate cap cannot beat the best found; the
    best segment is committed, and the level is stored. The best stored
    level dominates full activation by construction. The grid gains come
    from `grid_gain_table(users, layout, params, grid_points)`.
    """
    table = grid_gain_table(users, layout, params, grid_points)
    # Largest gain amplitude of each (segment, user) over the whole grid.
    peak = np.stack([np.abs(block).max(axis=1) for _, block in table])
    return _greedy(users, layout, params, table, partial(_switch_only_level, peak=peak))


def greedy_hssa_type2(users, layout, params, grid_points, tol: float = 1e-8, max_iter: int = 100) -> GreedyTrace:
    """Greedy activation and placement with per-segment phase shifters.

    Like the switch-only search, but without pruning: every inactive segment
    with a feasible grid point is a candidate and is re-scored after a full
    phase alternating optimization (all-zero initialization). The committed
    snapshot carries the converged phases.
    """
    table = grid_gain_table(users, layout, params, grid_points)
    return _greedy(users, layout, params, table, partial(_phase_shifter_level, tol=tol, max_iter=max_iter))


def _leftmost_start(table, min_spacing_m):
    """Positions and (K, M) gains of each segment's leftmost grid point clear of the antennas left of it.

    Segments are ordered along x, so this places all of them whenever any
    spacing-feasible grid placement exists. Raises ValueError otherwise.
    """
    positions, columns = [], []
    for grid, block in table:
        free = np.flatnonzero(~_infeasible_mask(grid, np.array(positions), min_spacing_m))
        if free.size == 0:
            raise ValueError(
                f"no grid placement of all {len(table)} segments keeps antennas {min_spacing_m:.6g} m "
                "apart; lower the minimum spacing or leave out the full-sa schemes"
            )
        positions.append(grid[free[0]])
        columns.append(block[:, free[0]])
    return np.array(positions), np.stack(columns, axis=1)


def full_sa_baseline(users, layout, params, grid_points, variant: str = "type1",
                     tol: float = 1e-8, max_iter: int = 100):
    """Coordinate-descent baseline with all segments activated.

    Antennas start at their segment midpoints, or, when the spacing is
    larger than the segment length so that midpoints are too close, at the
    leftmost spacing-feasible grid placement (ValueError when there is
    none). Each sweep re-optimizes every antenna position in index order
    over its currently feasible grid points (a move is accepted only when it
    does not lower the rate), so the placement stays feasible; for "type2"
    the phase vector is re-optimized after each sweep, warm-started from the
    current phases so the rate stays nondecreasing, with the AO stop rule
    `tol` and `max_iter` of `phase_alternating_opt`. Stops when the relative
    rate improvement of a sweep falls below `tol` or after
    FULL_SA_MAX_SWEEPS sweeps. Beside the grid gains, `users.cache` keeps the
    midpoint gain columns, under ("midpoint", *interval, height, params).

    Returns (placement, rate).
    """
    if variant not in ("type1", "type2"):
        raise ValueError(f"unknown variant {variant!r}")
    num_segments = layout.num_segments
    spacing = params.min_spacing_m
    table = grid_gain_table(users, layout, params, grid_points)
    pos = np.array([layout.feed_x[m] + layout.segment_length_m / 2.0 for m in range(num_segments)])
    if num_segments == 1 or np.diff(pos).min() >= spacing:
        gains = np.concatenate([_cached(users.cache, ("midpoint", *layout.segment_interval(m), layout.height_m, params),
                                        lambda: segment_gains(users, m, float(pos[m]), layout, params))
                                for m in range(num_segments)], axis=1)
    else:
        pos, gains = _leftmost_start(table, spacing)
    phase = np.zeros(num_segments)
    scale = num_segments * params.noise_power_w

    def snr_of(phases):
        h2 = np.abs(gains @ np.exp(1j * phases)) ** 2
        return float(np.sum(users.power_w * h2) / scale)

    # Each segment's mask of the other antennas.
    free = [_free_points(grid, np.delete(pos, m), spacing) for m, (grid, _) in enumerate(table)]
    grid_ends = np.array([layout.feed_x, layout.segment_ends])
    snr = snr_of(phase)
    rate = float(np.log2(1.0 + snr))
    for _ in range(FULL_SA_MAX_SWEEPS):
        prev_rate = rate
        w = np.exp(1j * phase)
        for m, (grid, block) in enumerate(table):
            if free[m] is False:
                continue
            pts, trial_gains = (grid, block) if free[m] is None else (grid[free[m]], block[:, free[m]])
            agg_others = gains @ w - w[m] * gains[:, m]
            # sum_k P_k |agg_others_k + w_m g_k|^2 / scale in place, with the
            # operations of that expression in its order, so with its bits.
            h = w[m] * trial_gains
            h += agg_others[:, None]
            received = np.abs(h)
            np.square(received, out=received)
            received *= users.power_w[:, None]
            snrs = received.sum(axis=0)
            snrs /= scale
            i = int(np.argmax(snrs))
            if snrs[i] >= snr:
                old, pos[m] = pos[m], pts[i]
                gains[:, m] = trial_gains[:, i]
                snr = float(snrs[i])
                if pos[m] != old:  # moving away frees points, so a mask can grow
                    for j in _segments_near(grid_ends, (old, pos[m]), spacing):
                        free[j] = _free_points(table[j][0], np.delete(pos, j), spacing)
        if variant == "type2":
            res = phase_alternating_opt(build_phase_matrix(gains, users.power_w), init=w, tol=tol,
                                        max_iter=max_iter)
            snr_new = snr_of(res.phases)
            if snr_new >= snr:
                phase = res.phases
                snr = snr_new
        rate = float(np.log2(1.0 + snr))
        if rate - prev_rate <= tol * max(prev_rate, 1e-300):
            break
    return Placement(range(num_segments), pos, phase), rate
