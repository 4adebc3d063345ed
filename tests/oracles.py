"""Reference forms that only the tests use."""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

import swanopt
import swanopt.harness as harness
from swanopt.bound import split_for_user, user_gain_bound
from swanopt.channel import segment_gains
from swanopt.geometry import Placement, SystemParams, UserSet, WaveguideLayout, sample_users
from swanopt.harness import SweepResult, sweep_csv_text
from swanopt.optimize import (
    FULL_SA_MAX_SWEEPS,
    _infeasible_mask,
    _leftmost_start,
    build_phase_matrix,
    candidate_grid,
    grid_gain_table,
    phase_alternating_opt,
)


class User(NamedTuple):
    """One user's ground position (z = 0) and transmit power."""

    x: float
    y: float
    power_w: float


def user_at(users: UserSet, k: int) -> User:
    """User k of a user set, as plain floats."""
    return User(float(users.x[k]), float(users.y[k]), float(users.power_w[k]))


def cli_env(**overrides) -> dict:
    """This process's environment for a `python -m swanopt.cli` child, so that it imports the tests' swanopt."""
    env = {**os.environ, **overrides}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(Path(swanopt.__file__).parents[1]), env.get("PYTHONPATH"))))
    return env


def dispatch_targets() -> list:
    """NumPy's dispatch targets that this process runs with; empty at its baseline (NPY_DISABLE_CPU_FEATURES)."""
    from numpy._core import _multiarray_umath as umath

    return [target for target in umath.__cpu_dispatch__ if umath.__cpu_features__.get(target)]


# NPY_DISABLE_CPU_FEATURES settings: AVX-512 off (AVX2 kernels), then also
# X86_V3 off (the SSE baseline). On a CPU without those features a setting
# changes nothing, so a test names the targets that each run actually had.
DISPATCH_SETTINGS = ("X86_V4 AVX512_ICL AVX512_SPR", "X86_V4 AVX512_ICL AVX512_SPR X86_V3")


def dispatch_children(script: str, *args: str) -> list:
    """One (setting, child) pair per DISPATCH_SETTINGS entry: `python -c script *args`, piping text stdout and stderr.

    The children import the tests' swanopt and these oracles.
    """
    path = os.pathsep.join(filter(None, (str(Path(__file__).parent), os.environ.get("PYTHONPATH"))))
    return [(setting, subprocess.Popen([sys.executable, "-c", script, *args], text=True,
                                       env=cli_env(PYTHONPATH=path, NPY_DISABLE_CPU_FEATURES=setting),
                                       stdout=subprocess.PIPE, stderr=subprocess.PIPE))
            for setting in DISPATCH_SETTINGS]


def phase_exponent_report(count: int = 10**5, seed: int = 5) -> str:
    """JSON of `dispatch_targets()` and the hex of every theta where exp(0 + i theta) and
    conj(exp(-1j * theta)) differ in bits.

    `_stacked_ao` writes the first for the second. The thetas are the signed
    zeros, +-pi, +-pi/2, +-5e-324 and `count` np.arctan2 angles of random
    complex values.
    """
    rng = np.random.default_rng(seed)
    y, x = rng.normal(size=(2, count)) * 10.0 ** rng.uniform(-20.0, 20.0, (2, count))
    special = [0.0, -0.0, np.pi, -np.pi, np.pi / 2, -np.pi / 2, 5e-324, -5e-324]
    theta = np.concatenate([special, np.arctan2(y, x)])
    buffer = np.zeros(theta.size, dtype=complex)
    buffer.imag = theta
    differ = np.exp(buffer).view(np.uint64) != np.conj(np.exp(-1j * theta)).view(np.uint64)
    mismatches = theta[differ.reshape(-1, 2).any(axis=1)]
    return json.dumps({"targets": dispatch_targets(), "mismatches": [float(t).hex() for t in mismatches]})


def sweep_report(runs) -> str:
    """JSON of `dispatch_targets()` and the CSV text of each (name, harness runner name, config path) sweep."""
    csv = {name: sweep_csv_text(getattr(harness, run)(harness.ExperimentConfig.from_file(path)))
           for name, run, path in runs}
    return json.dumps({"targets": dispatch_targets(), "csv": csv})


def bit_contract(reference) -> str:
    """Failure message of a comparison with recorded bytes: where they were recorded and what runs now.

    NumPy's float64 exp, log2 and arctan2 round differently under its AVX2
    and AVX-512 kernels, so the references hold only for the build and
    dispatch level that recorded them.
    """
    return (f"{reference} differs. The references were recorded under NumPy 2.4.6 with AVX512_SPR dispatch; "
            f"this run has NumPy {np.__version__} with dispatch targets {dispatch_targets()}")


def fresh(users: UserSet) -> UserSet:
    """The same users with an empty cache, so that a call on them computes everything anew."""
    return UserSet(users.x, users.y, users.power_w)


def params_28ghz(**kw) -> SystemParams:
    """28 GHz carrier, n_eff = 1.4 and 1e-12 W of noise, with any field overridden by `kw`."""
    defaults = dict(carrier_freq_hz=28e9, n_eff=1.4, noise_power_w=1e-12)
    defaults.update(kw)
    return SystemParams(**defaults)


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
    for m, x, phase in zip(placement.active, placement.positions, placement.phases):
        g = cascaded_gain(user, m, x, layout, params)
        total += np.exp(1j * phase) * g
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


def aligned_grid_point(grid, block, free, aggregate, n_active, users, params, align):
    """(position, sum_rate, gain column) of one segment's best grid point, its phase zero or aligned with the others.

    The greedy searches' per-segment form: the trial antenna's phase is zero,
    or with `align` the single-element optimum against `aggregate`, the
    committed antennas' unnormalized channel sums (zero phase at the first
    level), and `free` is the mask of usable grid points, or None for all.
    The optimizer searches a stack of segments, with these bits.
    """
    pts, gains = (grid, block) if free is None else (grid[free], block[:, free])
    if align and n_active:
        s = np.sum(users.power_w[:, None] * gains * np.conj(aggregate)[:, None], axis=0)
        v = np.where(s == 0, 1.0 + 0.0j, np.exp(-1j * np.angle(s)))
        h = aggregate[:, None] + v * gains
    else:
        h = aggregate[:, None] + gains
    h *= 1.0 / np.sqrt(n_active + 1)
    received = np.abs(h)
    np.square(received, out=received)
    received *= users.power_w[:, None]
    snr = received.sum(axis=0)
    snr /= params.noise_power_w
    i = int(np.argmax(snr))
    return float(pts[i]), float(np.log2(1.0 + snr[i])), gains[:, i]


def empty_placement() -> Placement:
    """A placement with no active segment."""
    return Placement(active=(), positions=(), phases=())


def with_segment(placement: Placement, segment: int, position: float, phase: float = 0.0) -> Placement:
    """Return a new placement with one more activated segment."""
    if segment in placement.active:
        raise ValueError(f"segment {segment} is already active")
    return Placement(
        active=placement.active + (segment,),
        positions=placement.positions + (float(position),),
        phases=placement.phases + (float(phase),),
    )


def spacing_violated(positions, min_spacing_m: float) -> bool:
    """Whether any two positions are closer than `min_spacing_m`, over the all-pairs gap matrix."""
    pos = np.asarray(positions, dtype=float)
    if len(pos) < 2:
        return False
    gaps = np.abs(pos[:, None] - pos[None, :])
    np.fill_diagonal(gaps, np.inf)
    return bool(gaps.min() < min_spacing_m)


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
        m_k, delta_minus, delta_plus = split_for_user(float(users.x[k]), layout)
        gain = user_gain_bound(delta_minus, m_k, delta_plus, layout.num_segments - 1 - m_k, layout.segment_length_m,
                               float(d_sq[k]), params.eta, partial_sum)
        total += float(users.power_w[k]) * gain
    return float(np.log2(1.0 + total / params.noise_power_w))


class PerDrawStream:
    """A realization's user stream with one `sample_users` call per draw; it keeps its draws."""

    def __init__(self, config, num_users: int, realization: int):
        self.config = config
        self.num_users = num_users
        self.rng = np.random.default_rng([config.master_seed, realization])
        self.draws: list[UserSet] = []
        self.users = self._draw()

    def _draw(self) -> UserSet:
        c = self.config
        self.draws.append(sample_users(self.num_users, c.region_x_m, c.region_y_m, c.tx_power_w, self.rng))
        return self.draws[-1]

    def inside(self, lo: float, hi: float, cap: int):
        """(users, index) of the first draw with every projection in [lo, hi]; None past `cap` redraws."""
        for j in itertools.count():
            if j == len(self.draws):
                self._draw()
            users = self.draws[j]
            if lo <= users.x.min() and users.x.max() <= hi:
                return users, j
            if j == cap:
                return None


def full_sa_rescan(users, layout, params, grid_points, variant="type1", tol=1e-8, max_iter=100):
    """`optimize.full_sa_baseline` that rebuilds every spacing mask from all the other antennas on every scan."""
    if variant not in ("type1", "type2"):
        raise ValueError(f"unknown variant {variant!r}")
    num_segments = layout.num_segments
    table = grid_gain_table(users, layout, params, grid_points)
    pos = np.array([layout.feed_x[m] + layout.segment_length_m / 2.0 for m in range(num_segments)])
    if num_segments == 1 or np.diff(pos).min() >= params.min_spacing_m:
        gains = np.stack([segment_gains(users, m, float(pos[m]), layout, params)[:, 0] for m in range(num_segments)],
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
            blocked = _infeasible_mask(grid, np.delete(pos, m), params.min_spacing_m)
            if blocked.all():
                continue
            pts, trial_gains = (grid[~blocked], block[:, ~blocked]) if blocked.any() else (grid, block)
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
        positions=tuple(pos.tolist()),
        phases=tuple(phase.tolist()),
    )
    return placement, rate


def exhaustive_zero_phase_rate(users, layout, params, grid_points) -> float:
    """Best all-zero-phase sum-rate over every spacing-feasible placement on the candidate grids.

    Every nonempty subset of segments and every tuple of their grid points is
    enumerated; each subset's tuples are scored as one array.
    """
    grids = [candidate_grid(m, layout, grid_points) for m in range(layout.num_segments)]
    blocks = [segment_gains(users, m, grid, layout, params) for m, grid in enumerate(grids)]
    best = 0.0
    for size in range(1, layout.num_segments + 1):
        for subset in itertools.combinations(range(layout.num_segments), size):
            # Row t of `index` is one tuple of grid indices, one per segment of the subset.
            index = np.indices((grid_points,) * size).reshape(size, -1).T
            positions = np.stack([grids[m][index[:, i]] for i, m in enumerate(subset)], axis=1)
            feasible = np.ones(len(index), dtype=bool)
            for a, b in itertools.combinations(range(size), 2):
                feasible &= np.abs(positions[:, a] - positions[:, b]) >= params.min_spacing_m
            h = sum(blocks[m][:, index[:, i]] for i, m in enumerate(subset)) / np.sqrt(size)
            snr = (users.power_w[:, None] * np.abs(h) ** 2).sum(axis=0) / params.noise_power_w
            best = max(best, float(np.log2(1.0 + snr[feasible].max())))
    return best


class Row(NamedTuple):
    """One row of a sweep's CSV, its cells parsed back to numbers."""

    sweep_var: str
    sweep_value: int
    scheme: str
    mean_rate: float
    std_rate: float
    n_real: int
    seed: int


def rows(result: SweepResult) -> list[Row]:
    """The rows of a sweep's CSV; a 17-digit cell parses back to the double it was written from."""
    parsed = []
    for line in sweep_csv_text(result).splitlines()[1:]:
        var, value, scheme, mean, std, n_real, seed = line.split(",")
        parsed.append(Row(var, int(value), scheme, float(mean), float(std), int(n_real), int(seed)))
    return parsed


def row(result: SweepResult, sweep_value: int, scheme: str) -> Row:
    """The first CSV row of a sweep point and scheme."""
    for r in rows(result):
        if r.sweep_value == sweep_value and r.scheme == scheme:
            return r
    raise KeyError((sweep_value, scheme))


def means(result: SweepResult, scheme: str) -> np.ndarray:
    """A scheme's CSV means in sweep order."""
    return np.array([r.mean_rate for r in rows(result) if r.scheme == scheme])
