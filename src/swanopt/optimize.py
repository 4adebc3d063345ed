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


class SegmentInfeasibleError(RuntimeError):
    """Every grid point of a candidate segment violates the spacing constraint."""


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
    """All activation levels generated by one greedy run."""

    levels: tuple[TraceLevel, ...]

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
    return (np.abs(grid[:, None] - positions[None, :]) < min_spacing_m).any(axis=1)


def _best_grid_point(segment, occupied, aggregate, n_active, users, layout, params, grid_points, align):
    """Best feasible grid position for a trial antenna, committed antennas fixed.

    `aggregate` holds the per-user unnormalized channel sums of the committed
    antennas. With `align` the trial antenna's phase shifter is set to the
    single-element optimum against that aggregate; otherwise it stays at zero.
    Returns (position, sum_rate, gain column at that position). Raises
    SegmentInfeasibleError when the whole grid violates the spacing constraint.
    """
    grid = candidate_grid(segment, layout, grid_points)
    mask = _infeasible_mask(grid, occupied, params.min_spacing_m)
    if mask.all():
        raise SegmentInfeasibleError(f"no feasible grid point left in segment {segment}")
    pts = grid[~mask]
    gains = segment_gains(users, segment, pts, layout, params)
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
    """Hermitian matrix A of the phase problem from a (K, S) gain matrix.

    A[m, n] = sum_k P_k g_{k,m} conj(g_{k,n}); the sum-rate objective of a
    unit-modulus phase vector v is the quadratic form v^T A v*.
    """
    return (gains * power_w[:, None]).T @ np.conj(gains)


def quadratic_objective(a: np.ndarray, v: np.ndarray) -> float:
    """Real value of the quadratic form v^T A v* for a unit-modulus vector v."""
    return float(np.real(np.dot(v, a @ np.conj(v))))


def _wrap_phases(v: np.ndarray) -> np.ndarray:
    # Tiny negative angles round up to exactly 2*pi under np.mod; keep [0, 2*pi).
    phases = np.mod(np.angle(v), TWO_PI)
    phases[phases >= TWO_PI] = 0.0
    return phases


def _element_update(a: np.ndarray, v: np.ndarray, m: int):
    """Optimal unit-modulus v[m] with all other entries held fixed.

    Maximizes the quadratic form's terms linear in v[m], whose coefficient is
    sum_{n != m} A[m, n] conj(v[n]); a zero coefficient leaves v[m] unchanged.
    """
    s = np.dot(a[m], np.conj(v)) - a[m, m] * np.conj(v[m])
    if s == 0:
        return v[m]
    return np.exp(-1j * np.angle(s))


def phase_alternating_opt(a: np.ndarray, init=None, tol: float = 1e-8, max_iter: int = 100) -> PhaseOptResult:
    """Element-wise alternating maximization of the unit-modulus quadratic form.

    Starts from `init` (all-zero phases when omitted) and sweeps the entries
    in ascending index order; every single-element update is the exact
    optimum given the others, so the objective never decreases. Stops when
    the relative objective improvement over a full sweep drops below `tol`
    or after `max_iter` sweeps. Returns phases in [0, 2*pi).
    """
    s = a.shape[0]
    if init is None:
        v = np.ones(s, dtype=complex)
    else:
        v = np.asarray(init, dtype=complex).copy()
        if v.shape != (s,):
            raise ValueError("init length must match the matrix size")
        if np.any(np.abs(np.abs(v) - 1.0) > 1e-9):
            raise ValueError("init entries must be unit-modulus")
    if s == 1:
        return PhaseOptResult(_wrap_phases(v), float(np.real(a[0, 0])), 0)
    obj = quadratic_objective(a, v)
    iterations = 0
    for sweep in range(1, max_iter + 1):
        for m in range(s):
            v[m] = _element_update(a, v, m)
        new_obj = quadratic_objective(a, v)
        iterations = sweep
        if new_obj - obj <= tol * max(abs(obj), 1e-300):
            obj = new_obj
            break
        obj = new_obj
    return PhaseOptResult(_wrap_phases(v), float(obj), iterations)


def _greedy(users, layout, params, grid_points, *, type2: bool, tol: float, max_iter: int) -> GreedyTrace:
    # Committed state in activation order: segments, positions, phases and
    # the (K, S) gain matrix whose columns are reused by every later level.
    num_segments = layout.num_segments
    active: list[int] = []
    positions: list[float] = []
    gains = np.zeros((users.num_users, 0), dtype=complex)
    aggregate = np.zeros(users.num_users, dtype=complex)
    levels: list[TraceLevel] = []
    for level in range(1, num_segments + 1):
        occupied = np.array(positions, dtype=float)
        best = None
        for m in range(num_segments):
            if m in active:
                continue
            try:
                pos, rate, column = _best_grid_point(
                    m, occupied, aggregate, len(active), users, layout, params, grid_points, type2,
                )
            except SegmentInfeasibleError:
                continue
            trial_phases = None
            if type2:
                trial = np.concatenate([gains, column[:, None]], axis=1)
                res = phase_alternating_opt(build_phase_matrix(trial, users.power_w), tol=tol, max_iter=max_iter)
                rate = float(np.log2(1.0 + res.objective / ((len(active) + 1) * params.noise_power_w)))
                trial_phases = res.phases
            if best is None or rate > best[0]:
                best = (rate, m, pos, column, trial_phases)
        if best is None:
            prev = levels[-1]
            levels.append(TraceLevel(level=level, segment=None, position=None,
                                     placement=prev.placement, rate=prev.rate, degenerate=True))
            continue
        rate, m, pos, column, trial_phases = best
        active.append(m)
        positions.append(pos)
        gains = np.concatenate([gains, column[:, None]], axis=1)
        phases = np.zeros(len(active)) if trial_phases is None else trial_phases
        aggregate = gains @ np.exp(1j * phases)
        placement = Placement(active=tuple(active), positions=dict(zip(active, positions)),
                              phases=dict(zip(active, phases.tolist())))
        levels.append(TraceLevel(level=level, segment=m, position=pos, placement=placement, rate=rate))
    return GreedyTrace(levels=tuple(levels))


def greedy_hssa_type1(users, layout, params, grid_points) -> GreedyTrace:
    """Greedy segment activation and placement for the switch-only architecture.

    At every level each inactive segment is trial-placed with a 1-d grid
    search, the best segment is committed, and the level is stored; the best
    stored level dominates full activation by construction.
    """
    return _greedy(users, layout, params, grid_points, type2=False, tol=0.0, max_iter=0)


def greedy_hssa_type2(users, layout, params, grid_points, tol: float = 1e-8, max_iter: int = 100) -> GreedyTrace:
    """Greedy activation and placement with per-segment phase shifters.

    Like the switch-only search, but every candidate is re-scored after a
    full phase alternating optimization (all-zero initialization), and the
    committed snapshot carries the converged phases.
    """
    return _greedy(users, layout, params, grid_points, type2=True, tol=tol, max_iter=max_iter)


def full_sa_baseline(users, layout, params, grid_points, variant: str = "type1",
                     tol: float = 1e-8, max_sweeps: int = 50):
    """Coordinate-descent baseline with all segments activated.

    Antennas start at their segment midpoints. Each sweep re-optimizes every
    antenna position in index order over its currently feasible grid points
    (a move is accepted only when it does not lower the rate); for "type2"
    the phase vector is re-optimized after each sweep, warm-started from the
    current phases so the rate stays nondecreasing. Stops when the relative
    rate improvement of a sweep falls below `tol` or after `max_sweeps`.

    Returns (placement, rate).
    """
    if variant not in ("type1", "type2"):
        raise ValueError(f"unknown variant {variant!r}")
    num_segments = layout.num_segments
    pos = np.array([layout.feed_x[m] + layout.segment_length_m / 2.0 for m in range(num_segments)])
    phase = np.zeros(num_segments)
    w = np.exp(1j * phase)
    gains = np.stack([segment_gains(users, m, float(pos[m]), layout, params) for m in range(num_segments)], axis=1)
    scale = num_segments * params.noise_power_w

    def snr_of(gmat, vvec):
        h2 = np.abs(gmat @ vvec) ** 2
        return float(np.sum(users.power_w * h2) / scale)

    snr = snr_of(gains, w)
    rate = float(np.log2(1.0 + snr))
    for _ in range(max_sweeps):
        prev_rate = rate
        for m in range(num_segments):
            grid = candidate_grid(m, layout, grid_points)
            mask = _infeasible_mask(grid, np.delete(pos, m), params.min_spacing_m)
            if mask.all():
                continue
            pts = grid[~mask]
            trial_gains = segment_gains(users, m, pts, layout, params)
            agg_others = gains @ w - w[m] * gains[:, m]
            h2 = np.abs(agg_others[:, None] + w[m] * trial_gains) ** 2
            snrs = np.sum(users.power_w[:, None] * h2, axis=0) / scale
            i = int(np.argmax(snrs))
            if snrs[i] >= snr:
                pos[m] = pts[i]
                gains[:, m] = trial_gains[:, i]
                snr = float(snrs[i])
        if variant == "type2":
            res = phase_alternating_opt(build_phase_matrix(gains, users.power_w), init=w, tol=tol)
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
