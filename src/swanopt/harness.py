"""Experiment runner: config ingestion, seeded Monte Carlo sweeps, CSV output.

Configs are flat ``key = value`` text files (``#`` starts a comment); every
key has a default matching the standard evaluation setup, unknown keys are
rejected. Powers cross this boundary in dBm and are converted to watts
before any computation.

Paired-seed discipline: realization r draws its users from the stream
(master_seed, r), so every scheme at every sweep point sees the identical
user set for a given r, and runs reproduce byte-identical CSV output.

Resampling policy: when a user projection falls outside the waveguide
extent (possible while sweeping the segment count below region_x / L), the
bound schemes take the first draw of the realization's stream whose
projections are all inside, and its index in the stream (the redraw count)
is recorded in the sidecar metadata; optimizer schemes keep the original
draw, which they handle fine. A realization that needs more than
MAX_REDRAWS redraws raises ValueError. The stream does not depend on the
segment count, so a sweep runs one realization at a time over all its
points: the realization's stream keeps its draws from point to point
(until the user count changes) and draws further only when no kept draw
fits, so the accepted draws and counts are those of a fresh stream at
every point. Redraws come in doubling blocks, and only a draw that a bound
scheme gets becomes a `UserSet`. The stream keeps those user sets, so the
cache of each (the grid-gain blocks of `grid_gain_table` and the exact
bound's terms) serves every point and scheme of one realization and user
count; the sweep empties them when it drops the stream.
"""

import hashlib
import json
import math
import warnings
from dataclasses import dataclass, fields, replace
from types import UnionType
from typing import get_args, get_origin

import numpy as np

from .bound import exact_amplitude_bound, sum_rate_bound
from .geometry import (
    SPEED_OF_LIGHT_M_S,
    SystemParams,
    UserSet,
    WaveguideLayout,
    build_centered_layout,
    dbm_to_watts,
    sample_users,
    uniform_draws,
)
from .optimize import GreedyTrace, full_sa_baseline, greedy_hssa_type1, greedy_hssa_type2

TOOL_VERSION = "0.1.0"

SCHEMES = ("bound-exact", "bound-integral", "full-sa-1", "full-sa-2", "hssa-1", "hssa-2")
# Redraws allowed per bound-scheme realization before the sweep point fails.
MAX_REDRAWS = 10_000

CSV_HEADER = "sweep_var,sweep_value,scheme,mean_rate_bps_hz,std_rate,n_real,seed"
TRACE_CSV_HEADER = "scheme,level,segment,position,phases,rate,degenerate,best"


def _fmt(value: float) -> str:
    return format(value, ".17g")


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved experiment settings; defaults follow the standard setup."""

    carrier_freq_hz: float = 28e9
    n_eff: float = 1.4
    kappa_db_per_m: float = 0.0
    min_spacing_m: float | None = None
    height_m: float = 3.0
    noise_dbm: float = -90.0
    segment_length_m: float = 1.0
    num_segments: int | None = None
    segment_sweep: tuple[int, ...] | None = None
    num_users: int | None = None
    user_sweep: tuple[int, ...] | None = None
    region_x_m: float = 20.0
    region_y_m: float = 20.0
    tx_power_dbm: float = 10.0
    grid_points: int = 1000
    ao_tol: float = 1e-8
    ao_max_iter: int = 100
    realizations: int = 50
    master_seed: int = 0
    schemes: tuple[str, ...] = SCHEMES
    output: str | None = None

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        for name, lowest in (("realizations", 1), ("num_users", 1), ("num_segments", 1), ("master_seed", 0),
                             ("grid_points", 2), ("ao_tol", 0), ("ao_max_iter", 0)):
            value = getattr(self, name)
            if value is not None and value < lowest:
                raise ValueError(f"{name} must be {f'at least {lowest}' if lowest else 'nonnegative'}")
        if not self.schemes:
            raise ValueError("schemes must be nonempty")
        unknown = [s for s in self.schemes if s not in SCHEMES]
        if unknown:
            raise ValueError(f"unknown schemes: {unknown}; valid: {list(SCHEMES)}")
        if len(set(self.schemes)) < len(self.schemes):
            raise ValueError(f"schemes lists a scheme more than once: {list(self.schemes)}")
        for name in ("segment_sweep", "user_sweep"):
            sweep = getattr(self, name)
            if sweep is not None:
                if len(sweep) == 0:
                    raise ValueError(f"{name} must be nonempty")
                if any(v < 1 for v in sweep):
                    raise ValueError(f"{name} values must be at least 1")
        for name in ("min_spacing_m", "height_m", "segment_length_m", "region_x_m", "region_y_m"):
            if getattr(self, name) is not None and getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        # Finite extreme values can overflow, underflow to 0 or divide by 0 in the quantities derived
        # from them. A row may derive from the keys of the rows above it, so those are checked first.
        for key, quantity, derive in (
            ("tx_power_dbm", "the transmit power in watts", lambda: self.tx_power_w),
            ("noise_dbm", "the noise power in watts", lambda: dbm_to_watts(self.noise_dbm)),
            ("carrier_freq_hz", "the free-space wavelength", lambda: SPEED_OF_LIGHT_M_S / self.carrier_freq_hz),
            # The gain kernel's phase along a segment; an overflow there gives NaN gains. `SystemParams`
            # rejects the carriers whose free-space gain at 1 m is not a positive finite double.
            ("n_eff", "the guided phase over one segment",
             lambda: 2.0 * math.pi * self.segment_length_m / self.system_params().guided_wavelength_m),
        ):
            try:
                derived = derive()
            except ArithmeticError:
                derived = math.nan
            if not (math.isfinite(derived) and derived > 0):
                raise ValueError(f"{key} = {getattr(self, key):.6g} is out of range: "
                                 f"{quantity} is not a positive finite double")
        # The gain kernel and the bounds square user-to-antenna distances and
        # multiply them by the wavenumber; an overflow there gives NaN gains.
        num_segments = max((*(self.segment_sweep or ()), self.num_segments or 1))
        reach = {
            "region_x_m": self.region_x_m / 2.0,
            "segment_length_m": num_segments * self.segment_length_m / 2.0,
            "region_y_m": self.region_y_m / 2.0,
            "height_m": self.height_m,
        }
        farthest = math.hypot(reach["region_x_m"] + reach["segment_length_m"], reach["region_y_m"], reach["height_m"])
        if not (math.isfinite(farthest * farthest) and math.isfinite(self.system_params().wavenumber * farthest)):
            key = max(reach, key=reach.get)
            raise ValueError(f"{key} = {getattr(self, key):.6g} is out of range: the largest user-to-antenna "
                             f"distance, {farthest:.6g} m, squared or times the wavenumber is not a finite double")
        if not math.isfinite(self.kappa_db_per_m * self.segment_length_m):
            raise ValueError(f"kappa_db_per_m = {self.kappa_db_per_m:.6g} is out of range: the attenuation over "
                             "one segment in dB is not a finite double")
        # A user's squared distance to the waveguide axis is at least this; 0 divides by zero.
        if not self.height_m**2 > 0:
            raise ValueError(f"height_m = {self.height_m:.6g} is out of range: its square underflows to 0")

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        """The config a `key = value` text gives; the one parser of configs."""
        return cls(**_parse_config_text(text))

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_text(handle.read())

    def system_params(self) -> SystemParams:
        return SystemParams(
            carrier_freq_hz=self.carrier_freq_hz,
            n_eff=self.n_eff,
            noise_power_w=dbm_to_watts(self.noise_dbm),
            kappa_db_per_m=self.kappa_db_per_m,
            min_spacing_m=self.min_spacing_m,
        )

    def layout_for(self, num_segments: int) -> WaveguideLayout:
        return build_centered_layout(num_segments, self.segment_length_m, self.height_m)

    @property
    def tx_power_w(self) -> float:
        return dbm_to_watts(self.tx_power_dbm)

    def canonical_text(self) -> str:
        lines = []
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                continue
            if isinstance(value, tuple):
                rendered = ",".join(str(v) for v in value)
            elif isinstance(value, float):
                rendered = _fmt(value)
            else:
                rendered = str(value)
            lines.append(f"{f.name} = {rendered}")
        return "\n".join(lines) + "\n"

    def config_hash(self) -> str:
        """The SHA-256 of the canonical text of what a run computes, so without the output path."""
        return hashlib.sha256(replace(self, output=None).canonical_text().encode("utf-8")).hexdigest()


def _field_parser(annotation):
    """Parser of one config value from its field type.

    `X | None` parses as X, and `tuple[T, ...]` as comma-separated Ts with
    empty items skipped.
    """
    if get_origin(annotation) is UnionType:
        annotation = next(t for t in get_args(annotation) if t is not type(None))
    if get_origin(annotation) is tuple:
        item = get_args(annotation)[0]
        return lambda rendered: tuple(item(v.strip()) for v in rendered.split(",") if v.strip())
    return annotation


_PARSERS = {f.name: _field_parser(f.type) for f in fields(ExperimentConfig)}


def _parse_config_text(text: str) -> dict:
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, rendered = line.partition("=")
        key = key.strip()
        rendered = rendered.strip()
        if key in values:
            raise ValueError(f"config line {lineno}: duplicate key {key!r}")
        if key not in _PARSERS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        try:
            values[key] = _PARSERS[key](rendered)
        except ValueError as exc:
            raise ValueError(f"config line {lineno}: {key} = {rendered}: {exc}") from exc
    return values


@dataclass(frozen=True)
class SweepResult:
    """Every rate of a sweep, with the config it ran.

    `rates[p, i, r]` is scheme `config.schemes[i]`'s rate at sweep point p
    (where the swept variable `sweep_var` is `values[p]`) in realization r,
    and `redraws[p, r]` is the index of the draw the bound schemes got there
    (0 without bound schemes).
    """

    config: ExperimentConfig
    sweep_var: str
    values: tuple[int, ...]
    rates: np.ndarray
    redraws: np.ndarray


def sweep_csv_text(result: SweepResult) -> str:
    """One row per (point, scheme): the mean and sample standard deviation of its rates over the realizations."""
    lines = [CSV_HEADER]
    n_real = result.rates.shape[2]
    for value, point_rates in zip(result.values, result.rates):
        for scheme, vals in zip(result.config.schemes, point_rates):
            std = float(np.std(vals, ddof=1)) if n_real > 1 else 0.0
            lines.append(f"{result.sweep_var},{value},{scheme},{_fmt(float(np.mean(vals)))},{_fmt(std)},{n_real},"
                         f"{result.config.master_seed}")
    return "\n".join(lines) + "\n"


def _write_with_sidecar(path, csv_text: str, config_hash: str, sweep_var: str, resample_counts: dict) -> None:
    """Write a CSV (LF endings) and its `<path>.meta.json` metadata sidecar."""
    payload = {
        "tool_version": TOOL_VERSION,
        "config_sha256": config_hash,
        "sweep_var": sweep_var,
        "resample_counts": {str(k): v for k, v in sorted(resample_counts.items())},
    }
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(csv_text)
    with open(f"{path}.meta.json", "w", encoding="utf-8", newline="") as handle:
        handle.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def write_sweep_result(result: SweepResult, path) -> str:
    """Write the CSV (17 significant digits) plus a metadata sidecar; returns the CSV text."""
    text = sweep_csv_text(result)
    resample_counts = {value: int(point_redraws.sum()) for value, point_redraws in zip(result.values, result.redraws)}
    _write_with_sidecar(path, text, result.config.config_hash(), result.sweep_var, resample_counts)
    return text


class _UserStream:
    """The draws of one realization's stream (master_seed, realization).

    Draw 0, `users`, is the user set every scheme sees. The stream keeps
    every draw's x-range and coordinates, so that the sweep points of one
    realization with the same user count reuse them, and builds a `UserSet`
    only for a draw that `inside` returns.
    """

    def __init__(self, config: ExperimentConfig, num_users: int, realization: int):
        self.config = config
        self.num_users = num_users
        self.rng = np.random.default_rng([config.master_seed, realization])
        self.users = sample_users(num_users, config.region_x_m, config.region_y_m, config.tx_power_w, self.rng)
        self.draws = [(float(self.users.x.min()), float(self.users.x.max()), self.users.x, self.users.y)]
        self.built = {0: self.users}  # the user sets `inside` has returned, by draw index

    def close(self) -> None:
        """Empty the caches of the stream's user sets, which a scheme's caller may still hold."""
        for users in self.built.values():
            users.cache.clear()

    def _draw_block(self) -> None:
        """Draw as many more draws as the stream holds, up to MAX_REDRAWS + 1 in all."""
        count = min(len(self.draws), MAX_REDRAWS + 1 - len(self.draws))
        x, y = uniform_draws(self.rng, count, self.num_users, self.config.region_x_m, self.config.region_y_m)
        self.draws += zip(x.min(axis=1).tolist(), x.max(axis=1).tolist(), x, y)

    def inside(self, lo: float, hi: float) -> tuple[UserSet, int]:
        """The first draw with every projection in [lo, hi], and its index in the stream."""
        j = 0
        while True:
            if j == len(self.draws):
                self._draw_block()
            x_min, x_max, x, y = self.draws[j]
            if lo <= x_min and x_max <= hi:
                if j not in self.built:
                    self.built[j] = UserSet(x=x, y=y, power_w=self.users.power_w)
                return self.built[j], j
            if j == MAX_REDRAWS:
                raise ValueError(
                    f"no draw of {self.num_users} users within {MAX_REDRAWS} redraws has every projection "
                    f"inside the waveguide extent [{lo:.6g}, {hi:.6g}] m; widen the layout or narrow region_x_m"
                )
            j += 1


def _require_positive(rate: float, scheme: str, where: str, config: ExperimentConfig) -> None:
    """Raise ValueError when a scheme's rate is not finite and positive.

    log2(1 + snr) rounds to 0 once the SNR is below about 1e-16, so a zero
    rate means the noise floor swamps the transmit power; a rate that is not
    finite means the SNR, or the received power, overflows a double (or a
    user is too near the waveguide axis, which is at least height_m away).
    """
    if not math.isfinite(rate):
        raise ValueError(
            f"{scheme} rate at {where} is {rate} (SNR overflows double precision); raise noise_dbm "
            f"({config.noise_dbm:.6g}), lower tx_power_dbm ({config.tx_power_dbm:.6g}), raise "
            f"carrier_freq_hz ({config.carrier_freq_hz:.6g}) or raise height_m ({config.height_m:.6g})"
        )
    if not rate > 0:
        raise ValueError(
            f"{scheme} rate at {where} is not positive (SNR below double precision); "
            f"lower noise_dbm ({config.noise_dbm:.6g}) or raise tx_power_dbm ({config.tx_power_dbm:.6g})"
        )


def _run_scheme(scheme: str, users, layout, params, config: ExperimentConfig, where: str):
    """Call one scheme with the config's settings; return its result and its rate.

    A FloatingPointError counts as an infinite rate, which `_require_positive`
    rejects like any rate at `where` that is not finite and positive.
    """
    # perfbench wraps the five scheme functions by their names in this module, reads users, layout and params
    # from args[0:3] and full-SA's variant from args[4] or variant=, and takes a bound's result as the rate, a
    # greedy's as a GreedyTrace and full-SA's as a (placement, rate) pair. So call them through the module
    # globals, pass the variant explicitly and keep those result types.
    try:
        if scheme == "bound-exact":
            result = rate = exact_amplitude_bound(users, layout, params)
        elif scheme == "bound-integral":
            result = rate = sum_rate_bound(users, layout, params)
        elif scheme == "hssa-1":
            result = greedy_hssa_type1(users, layout, params, config.grid_points)
            rate = result.best_rate
        elif scheme == "hssa-2":
            result = greedy_hssa_type2(users, layout, params, config.grid_points,
                                       tol=config.ao_tol, max_iter=config.ao_max_iter)
            rate = result.best_rate
        else:
            result = full_sa_baseline(users, layout, params, config.grid_points, "type" + scheme[-1],
                                      tol=config.ao_tol, max_iter=config.ao_max_iter)
            rate = result[1]
    except FloatingPointError:
        result = rate = math.inf
    _require_positive(rate, scheme, where, config)
    return result, rate


# NumPy raises FloatingPointError instead of warning and computing on with inf or NaN.
@np.errstate(over="raise", divide="raise", invalid="raise")
def _run_sweep(config: ExperimentConfig, sweep_var: str, points) -> SweepResult:
    """Run each realization over all (value, num_segments, num_users) points, one user stream at a time."""
    params = config.system_params()
    is_bound = [scheme.startswith("bound-") for scheme in config.schemes]  # a scheme's kind is its name prefix
    needs_bound_users = any(is_bound)
    layouts = [config.layout_for(num_segments) for _, num_segments, _ in points]
    values = tuple(value for value, _, _ in points)
    wheres = [f"{sweep_var} = {value}" for value in values]
    narrow = [value for value, layout in zip(values, layouts)
              if layout.extent[1] - layout.extent[0] < config.region_x_m * (1 - 1e-12)]
    if needs_bound_users and narrow:
        warnings.warn(f"waveguide coverage is narrower than the {config.region_x_m:.6g} m user region at "
                      f"{sweep_var} = {', '.join(map(str, dict.fromkeys(narrow)))}; bound schemes resample "
                      "out-of-extent realizations", RuntimeWarning, stacklevel=4)  # the public runner's caller
    rates = np.empty((len(points), len(config.schemes), config.realizations))
    redraws = np.zeros((len(points), config.realizations), dtype=int)
    for r in range(config.realizations):
        stream = None
        for p, ((_, _, num_users), layout, where) in enumerate(zip(points, layouts, wheres)):
            if stream is None or stream.num_users != num_users:
                if stream is not None:
                    stream.close()
                stream = None  # drop the old draws first, so that one stream is alive at a time
                stream = _UserStream(config, num_users, r)
            bound_users = stream.users
            if needs_bound_users:
                bound_users, redraws[p, r] = stream.inside(*layout.extent)
            for i, scheme in enumerate(config.schemes):
                chosen = bound_users if is_bound[i] else stream.users
                _, rates[p, i, r] = _run_scheme(scheme, chosen, layout, params, config, where)
        stream.close()
    return SweepResult(config, sweep_var, values, rates, redraws)


def _segment_points(config: ExperimentConfig) -> list:
    if not config.segment_sweep:
        raise ValueError("segment_sweep must be set")
    if config.num_users is None:
        raise ValueError("num_users must be set for a segment sweep")
    return [(m, m, config.num_users) for m in config.segment_sweep]


def run_bound_sweep(config: ExperimentConfig) -> SweepResult:
    """Evaluate the analytical bounds (plus any other requested schemes) over a segment sweep."""
    if not any(s.startswith("bound-") for s in config.schemes):
        raise ValueError("bound sweep needs bound-exact and/or bound-integral in schemes")
    return _run_sweep(config, "M", _segment_points(config))


def run_segment_sweep(config: ExperimentConfig) -> SweepResult:
    """Evaluate every requested scheme at each segment count of the sweep."""
    return _run_sweep(config, "M", _segment_points(config))


def run_user_sweep(config: ExperimentConfig) -> SweepResult:
    """Evaluate every requested scheme at each user count, segment count fixed."""
    if not config.user_sweep:
        raise ValueError("user_sweep must be set")
    if config.num_segments is None:
        raise ValueError("num_segments must be set for a user sweep")
    points = [(k, config.num_segments, k) for k in config.user_sweep]
    return _run_sweep(config, "K", points)


@np.errstate(over="raise", divide="raise", invalid="raise")
def run_single(config: ExperimentConfig) -> dict[str, GreedyTrace]:
    """Run the greedy schemes once (realization 0) and return their full traces."""
    if config.num_segments is None or config.num_users is None:
        raise ValueError("single run needs num_segments and num_users")
    greedy = [s for s in config.schemes if s.startswith("hssa-")]
    if not greedy:
        raise ValueError("single run needs hssa-1 and/or hssa-2 in schemes")
    params = config.system_params()
    layout = config.layout_for(config.num_segments)
    users = _UserStream(config, config.num_users, 0).users  # both greedy schemes share its cached grid gains
    return {s: _run_scheme(s, users, layout, params, config, "the single run")[0] for s in greedy}


def trace_csv_text(traces: dict[str, GreedyTrace]) -> str:
    """Per-level dump of greedy traces; the best stored level is flagged."""
    lines = [TRACE_CSV_HEADER]
    for scheme in sorted(traces):
        trace = traces[scheme]
        best_level = trace.best_level
        for level, lvl in enumerate(trace.levels, 1):
            placement = lvl.placement  # its last antenna is the level's; a degenerate level commits none
            segment, position = ("", "") if lvl.degenerate else (placement.active[-1], _fmt(placement.positions[-1]))
            phases = ";".join(f"{m}:{_fmt(p)}" for m, p in zip(placement.active, placement.phases))
            lines.append(
                f"{scheme},{level},{segment},{position},{phases},{_fmt(lvl.rate)},"
                f"{int(lvl.degenerate)},{int(level == best_level)}"
            )
    return "\n".join(lines) + "\n"


def write_trace_result(traces: dict[str, GreedyTrace], config: ExperimentConfig, path) -> str:
    """Write the trace CSV plus a sidecar with sweep_var "single" and no resampling; returns the CSV text."""
    text = trace_csv_text(traces)
    _write_with_sidecar(path, text, config.config_hash(), "single", {})
    return text


def apply_overrides(config: ExperimentConfig, seed=None, realizations=None, output=None) -> ExperimentConfig:
    """CLI-flag overrides on top of a parsed config; a flag left at None keeps the config's value."""
    updates = {"master_seed": seed, "realizations": realizations, "output": output}
    return replace(config, **{key: value for key, value in updates.items() if value is not None})
