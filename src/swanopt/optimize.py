"""Greedy joint segment activation / antenna placement and phase optimization.

Two greedy searches are provided. The switch-only variant scores candidate
segments with all phases at zero; the phase-shifter variant re-optimizes the
full phase vector for every candidate through element-wise alternating
optimization and commits the converged phases of the winner. Both run all M
activation levels and keep every level in the trace; the caller reads off the
best stored level, so full activation can never win by omission.

A coordinate-descent baseline over the fully activated layout is included
for comparison: repeated index-order sweeps re-optimize one antenna position
at a time over its feasible grid, with an optional phase re-optimization
after each sweep.

One AO kernel serves both phase-shifter schemes. It runs on a stack of
phase matrices whose problems leave the stack as they converge, so every
problem gets the bits it gets alone. The phase-shifter search grid-searches
every candidate first and then runs AO on all of a level's candidates at
once; the baseline runs it on a stack of one, warm-started, through
`phase_alternating_opt`. Grid gains are computed once per scheme call, or
once for all schemes when the caller passes the table.

Determinism: ties between candidate segments resolve to the smallest segment
index, ties between grid points to the smallest coordinate, and phase updates
run in ascending index order. Identical inputs give bit-identical traces.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# Unused here, but perfbench/spans.py patches optimize.cascaded_gain_matrix by name.
from .channel import cascaded_gain_matrix, segment_gains  # noqa: F401
from .geometry import Placement, WaveguideLayout

TWO_PI = 2.0 * np.pi
# Sweep cap of the full-activation baseline's coordinate descent.
FULL_SA_MAX_SWEEPS = 100


@dataclass(frozen=True)
class TraceLevel:
    """One greedy iteration: the committed segment and the resulting state.

    Degenerate levels occur when no remaining segment had a feasible grid
    point; they repeat the previous level's placement and rate.
    """

    level: int
    segment: int | None
    position: float | None
    placement: Placement
    rate: float
    degenerate: bool = False


@dataclass(frozen=True)
class GreedyTrace:
    """All activation levels generated by one greedy run.

    The phase-shifter search also counts its AO work: the problems solved,
    the sum of their sweeps, and the problems of more than one element that
    stopped at the sweep cap. The switch-only search leaves them at 0.
    """

    levels: tuple[TraceLevel, ...]
    ao_runs: int = 0
    ao_sweeps: int = 0
    ao_cap_hits: int = 0

    @property
    def best(self) -> TraceLevel:
        return max(self.levels, key=lambda t: t.rate)

    @property
    def best_level(self) -> int:
        return self.best.level

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


def grid_gain_table(users, layout, params, grid_points) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per segment, its candidate grid and the (K, Q) gains at every grid point.

    The gains do not depend on the other antennas, so one table serves every
    level of a greedy run, every sweep of the baseline and every scheme run
    on the same users and layout; it costs M * K * Q * 16 bytes. Slicing a
    block gives the bits `segment_gains` returns on the same subset, because
    the kernel is elementwise.
    """
    table = []
    for m in range(layout.num_segments):
        grid = candidate_grid(m, layout, grid_points)
        table.append((grid, segment_gains(users, m, grid, layout, params)))
    return table


def _feasible(grid, block, occupied, min_spacing_m):
    """Grid points at least `min_spacing_m` from every occupied position, with their gain columns.

    Returns None when no point is feasible; the block is sliced only when some point is not.
    """
    mask = _infeasible_mask(grid, occupied, min_spacing_m)
    if not mask.any():
        return grid, block
    if mask.all():
        return None
    return grid[~mask], block[:, ~mask]


def _best_grid_point(grid, block, occupied, aggregate, n_active, users, params, align):
    """Best feasible grid position for a trial antenna, committed antennas fixed.

    `grid` and `block` are one segment's entry of the grid-gain table.
    `aggregate` holds the per-user unnormalized channel sums of the committed
    antennas. With `align` the trial antenna's phase shifter is set to the
    single-element optimum against that aggregate; otherwise it stays at zero.
    Returns (position, sum_rate, gain column at that position), or None when
    the whole grid violates the spacing constraint.
    """
    feasible = _feasible(grid, block, occupied, params.min_spacing_m)
    if feasible is None:
        return None
    pts, gains = feasible
    if align and n_active:
        # Best phase for the new antenna with all committed phases held fixed.
        s = np.sum(users.power_w[:, None] * gains * np.conj(aggregate)[:, None], axis=0)
        v = np.where(s == 0, 1.0 + 0.0j, np.exp(-1j * np.angle(s)))
    else:
        v = 1.0
    h = (aggregate[:, None] + v * gains) / np.sqrt(n_active + 1)
    snr = np.sum(users.power_w[:, None] * np.abs(h) ** 2, axis=0) / params.noise_power_w
    i = int(np.argmax(snr))
    return float(pts[i]), float(np.log2(1.0 + snr[i])), gains[:, i]


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
        if np.any(np.abs(np.abs(init) - 1.0) > 1e-9):
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
    from the scalar product.
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
    refresh = True
    for sweep in range(1, max_iter + 1):
        if refresh:
            rows = [la[:, m, None, :] for m in range(s)]
            diag = la.diagonal(axis1=1, axis2=2)
            d_re, d_im = diag.real.T.copy(), diag.imag.T.copy()
            conj_v = np.conj(lv)
            column = conj_v[:, :, None]
        # Element m aligns with its coefficient sum_{n != m} A[m, n] conj(v[n]).
        for m in range(s):
            dot = np.matmul(rows[m], column)[:, 0, 0]
            cv_re, cv_im = conj_v[:, m].real, conj_v[:, m].imag
            c_re = dot.real - (d_re[m] * cv_re - d_im[m] * cv_im)
            c_im = dot.imag - (d_re[m] * cv_im + d_im[m] * cv_re)
            u = np.exp(-1j * np.arctan2(c_im, c_re))
            if np.count_nonzero(c_re) < c_re.size:  # a zero coefficient leaves the element unchanged
                zero = (c_re == 0) & (c_im == 0)
                u[zero] = lv[zero, m]
            lv[:, m] = u
            np.conjugate(u, out=conj_v[:, m])
        new_obj = objective(la, lv, conj_v)
        stopped = new_obj - lobj <= tol * np.maximum(np.abs(lobj), 1e-300)
        obj[live] = new_obj
        iterations[live] = sweep
        lobj = new_obj
        refresh = stopped.any()
        if refresh:
            v[live[stopped]] = lv[stopped]
            kept = ~stopped
            live, la, lv, lobj = live[kept], la[kept], lv[kept], lobj[kept]
            if not live.size:
                break
    v[live] = lv
    return _wrap_phases(v), obj, iterations


def _best_phase_candidate(candidates, gains, users, noise_scale, tol, max_iter):
    """Winner among the grid-searched (segment, position, rate, column) candidates after phase AO.

    AO runs on every candidate's trial matrix at once. The winner has the
    highest rate, ties going to the smallest segment; comparing rates rather
    than objectives matters at low SNR, where close objectives round to the
    same rate. Returns (rate, segment, position, column, phases) and the
    candidates' AO iteration counts.
    """
    k, n = gains.shape
    trials = np.empty((len(candidates), k, n + 1), dtype=complex)
    trials[:, :, :n] = gains
    trials[:, :, n] = [column for _, _, _, column in candidates]
    phases, objectives, iterations = _stacked_ao(build_phase_matrix(trials, users.power_w), tol, max_iter)
    best = None
    for i, (m, pos, _, column) in enumerate(candidates):
        rate = float(np.log2(1.0 + float(objectives[i]) / noise_scale))
        if best is None or rate > best[0]:
            best = (rate, m, pos, column, phases[i])
    return best, iterations


def _greedy(users, layout, params, grid_points, table, *, type2: bool, tol: float, max_iter: int) -> GreedyTrace:
    # Committed state in activation order: segments, positions, phases and
    # the (K, S) gain matrix whose columns are reused by every later level.
    if table is None:
        table = grid_gain_table(users, layout, params, grid_points)
    active: list[int] = []
    positions: list[float] = []
    gains = np.zeros((users.num_users, 0), dtype=complex)
    aggregate = np.zeros(users.num_users, dtype=complex)
    levels: list[TraceLevel] = []
    ao_runs = ao_sweeps = ao_cap_hits = 0
    for level in range(1, layout.num_segments + 1):
        occupied = np.array(positions, dtype=float)
        candidates = []  # (segment, position, rate, column) in ascending segment order
        for m, (grid, block) in enumerate(table):
            if m in active:
                continue
            best = _best_grid_point(grid, block, occupied, aggregate, len(active), users, params, type2)
            if best is not None:
                candidates.append((m, *best))
        if not candidates:
            prev = levels[-1]
            levels.append(TraceLevel(level=level, segment=None, position=None,
                                     placement=prev.placement, rate=prev.rate, degenerate=True))
            continue
        if type2:
            (rate, m, pos, column, phases), iterations = _best_phase_candidate(
                candidates, gains, users, (len(active) + 1) * params.noise_power_w, tol, max_iter)
            ao_runs += iterations.size
            ao_sweeps += int(iterations.sum())
            if active:  # problems of one element take no sweeps
                ao_cap_hits += int(np.count_nonzero(iterations >= max_iter))
        else:
            # max keeps the first of equal rates: the smallest segment.
            m, pos, rate, column = max(candidates, key=lambda c: c[2])
            phases = np.zeros(len(active) + 1)
        active.append(m)
        positions.append(pos)
        gains = np.concatenate([gains, column[:, None]], axis=1)
        aggregate = gains @ np.exp(1j * phases)
        placement = Placement(active=tuple(active), positions=dict(zip(active, positions)),
                              phases=dict(zip(active, phases.tolist())))
        levels.append(TraceLevel(level=level, segment=m, position=pos, placement=placement, rate=rate))
    return GreedyTrace(levels=tuple(levels), ao_runs=ao_runs, ao_sweeps=ao_sweeps, ao_cap_hits=ao_cap_hits)


def greedy_hssa_type1(users, layout, params, grid_points, table=None) -> GreedyTrace:
    """Greedy segment activation and placement for the switch-only architecture.

    At every level each inactive segment is trial-placed with a 1-d grid
    search, the best segment is committed, and the level is stored; the best
    stored level dominates full activation by construction. `table` is
    `grid_gain_table(users, layout, params, grid_points)`, built here when
    omitted.
    """
    return _greedy(users, layout, params, grid_points, table, type2=False, tol=0.0, max_iter=0)


def greedy_hssa_type2(users, layout, params, grid_points, tol: float = 1e-8, max_iter: int = 100,
                      table=None) -> GreedyTrace:
    """Greedy activation and placement with per-segment phase shifters.

    Like the switch-only search, but every candidate is re-scored after a
    full phase alternating optimization (all-zero initialization), and the
    committed snapshot carries the converged phases. `table` is as for
    `greedy_hssa_type1`.
    """
    return _greedy(users, layout, params, grid_points, table, type2=True, tol=tol, max_iter=max_iter)


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
                     tol: float = 1e-8, max_iter: int = 100, table=None):
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
    FULL_SA_MAX_SWEEPS sweeps. `table` is as for `greedy_hssa_type1`.

    Returns (placement, rate).
    """
    if variant not in ("type1", "type2"):
        raise ValueError(f"unknown variant {variant!r}")
    num_segments = layout.num_segments
    if table is None:
        table = grid_gain_table(users, layout, params, grid_points)
    pos = np.array([layout.feed_x[m] + layout.segment_length_m / 2.0 for m in range(num_segments)])
    if num_segments == 1 or np.diff(pos).min() >= params.min_spacing_m:
        gains = np.stack([segment_gains(users, m, float(pos[m]), layout, params) for m in range(num_segments)],
                         axis=1)
    else:
        pos, gains = _leftmost_start(table, params.min_spacing_m)
    phase = np.zeros(num_segments)
    w = np.exp(1j * phase)
    scale = num_segments * params.noise_power_w

    def snr_of(gmat, vvec):
        h2 = np.abs(gmat @ vvec) ** 2
        return float(np.sum(users.power_w * h2) / scale)

    snr = snr_of(gains, w)
    rate = float(np.log2(1.0 + snr))
    for _ in range(FULL_SA_MAX_SWEEPS):
        prev_rate = rate
        for m, (grid, block) in enumerate(table):
            feasible = _feasible(grid, block, np.delete(pos, m), params.min_spacing_m)
            if feasible is None:
                continue
            pts, trial_gains = feasible
            agg_others = gains @ w - w[m] * gains[:, m]
            h2 = np.abs(agg_others[:, None] + w[m] * trial_gains) ** 2
            snrs = np.sum(users.power_w[:, None] * h2, axis=0) / scale
            i = int(np.argmax(snrs))
            if snrs[i] >= snr:
                pos[m] = pts[i]
                gains[:, m] = trial_gains[:, i]
                snr = float(snrs[i])
        if variant == "type2":
            res = phase_alternating_opt(build_phase_matrix(gains, users.power_w), init=w, tol=tol,
                                        max_iter=max_iter)
            w_new = np.exp(1j * res.phases)
            snr_new = snr_of(gains, w_new)
            if snr_new >= snr:
                phase = res.phases
                w = w_new
                snr = snr_new
        rate = float(np.log2(1.0 + snr))
        if rate - prev_rate <= tol * max(prev_rate, 1e-300):
            break
    placement = Placement(
        active=tuple(range(num_segments)),
        positions={m: float(pos[m]) for m in range(num_segments)},
        phases={m: float(phase[m]) for m in range(num_segments)},
    )
    return placement, rate
