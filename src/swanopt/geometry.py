"""Physical parameters, waveguide layout, and user scenarios.

Units are SI throughout: meters, watts, Hz, radians. Transmit and noise
powers cross the configuration boundary in dBm and are converted to watts
here. Segment indices are 0-based everywhere in this package.

All types in this module are immutable after construction and safe to
share across concurrent workers.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

SPEED_OF_LIGHT_M_S = 299_792_458.0


def dbm_to_watts(dbm):
    """Convert a power level from dBm to watts."""
    return 10.0 ** ((dbm - 30.0) / 10.0)


@dataclass(frozen=True)
class SystemParams:
    """Carrier and receiver constants plus derived wave quantities.

    Attributes:
        carrier_freq_hz: carrier frequency [Hz].
        n_eff: effective refractive index of the dielectric waveguide.
        kappa_db_per_m: in-waveguide attenuation [dB/m]; 0 disables it.
        noise_power_w: receiver noise power [W].
        min_spacing_m: minimum spacing between active antennas [m].
            Defaults to half a free-space wavelength when omitted.
    """

    carrier_freq_hz: float
    n_eff: float
    noise_power_w: float
    kappa_db_per_m: float = 0.0
    min_spacing_m: float | None = None

    def __post_init__(self):
        if self.carrier_freq_hz <= 0:
            raise ValueError("carrier_freq_hz must be positive")
        if self.n_eff <= 0:
            raise ValueError("n_eff must be positive")
        if self.noise_power_w <= 0:
            raise ValueError("noise_power_w must be positive")
        if self.kappa_db_per_m < 0:
            raise ValueError("kappa_db_per_m must be nonnegative")
        if self.min_spacing_m is None:
            object.__setattr__(self, "min_spacing_m", self.wavelength_m / 2.0)
        elif not 0 < self.min_spacing_m < np.inf:  # also false for NaN, which every spacing test would pass
            raise ValueError(f"min_spacing_m must be positive and finite, got {self.min_spacing_m}")

    @cached_property
    def wavelength_m(self) -> float:
        """Free-space wavelength [m]."""
        return SPEED_OF_LIGHT_M_S / self.carrier_freq_hz

    @cached_property
    def guided_wavelength_m(self) -> float:
        """In-waveguide wavelength [m], free-space wavelength over n_eff."""
        return self.wavelength_m / self.n_eff

    @cached_property
    def wavenumber(self) -> float:
        """Free-space wavenumber 2*pi/wavelength [rad/m]."""
        return 2.0 * np.pi / self.wavelength_m

    @cached_property
    def eta(self) -> float:
        """Free-space power gain at 1 m, (wavelength / 4 pi)^2 [dimensionless]."""
        return SPEED_OF_LIGHT_M_S**2 / (16.0 * np.pi**2 * self.carrier_freq_hz**2)


@dataclass(frozen=True)
class WaveguideLayout:
    """M contiguous waveguide segments of length L along the x-axis at fixed height.

    Segment m's feed point, at its left end, is `feed_x[m] = start_x + m * L`;
    the segment spans [feed_x[m], feed_x[m] + L].
    """

    num_segments: int
    segment_length_m: float
    height_m: float
    start_x: float

    def __post_init__(self):
        if self.num_segments < 1:
            raise ValueError("num_segments must be at least 1")
        if self.segment_length_m <= 0:
            raise ValueError("segment_length_m must be positive")
        if self.height_m <= 0:
            raise ValueError("height_m must be positive")

    @cached_property
    def feed_x(self) -> tuple[float, ...]:
        """Feed-point x-coordinate of every segment, in segment order."""
        return tuple(self.start_x + m * self.segment_length_m for m in range(self.num_segments))

    def segment_interval(self, segment: int) -> tuple[float, float]:
        """Closed interval [feed_x[segment], segment_ends[segment]] of admissible antenna positions."""
        return self.feed_x[segment], self.segment_ends[segment]

    @cached_property
    def segment_ends(self) -> tuple[float, ...]:
        """Right edge feed_x[m] + L of every segment, in segment order; the one place a segment's end is computed."""
        return tuple(x + self.segment_length_m for x in self.feed_x)

    @cached_property
    def extent(self) -> tuple[float, float]:
        """x-range covered by the waveguide, first feed to last segment end."""
        return self.feed_x[0], self.segment_ends[-1]


@dataclass(frozen=True)
class UserSet:
    """Positions and transmit powers of the K uplink users.

    Arrays are 1-d of equal length and are frozen read-only on construction.
    """

    x: np.ndarray
    y: np.ndarray
    power_w: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float).copy()
        y = np.asarray(self.y, dtype=float).copy()
        p = np.asarray(self.power_w, dtype=float).copy()
        if x.ndim != 1 or x.shape != y.shape or x.shape != p.shape:
            raise ValueError("x, y, power_w must be 1-d arrays of equal length")
        if x.size < 1:
            raise ValueError("at least one user is required")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y)) and np.all(np.isfinite(p))):
            raise ValueError("user coordinates and powers must be finite")
        if np.any(p <= 0):
            raise ValueError("all transmit powers must be strictly positive")
        for arr in (x, y, p):
            arr.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "power_w", p)

    @property
    def num_users(self) -> int:
        return self.x.size

    def dist_sq_to_axis(self, height_m: float) -> np.ndarray:
        """Squared distance of each user to the waveguide axis, d^2 + y^2 [m^2]."""
        return height_m**2 + self.y**2


@dataclass(frozen=True)
class Placement:
    """Activated segments with one antenna position and one phase shift each.

    The three tuples run in activation order (it matters for greedy traces):
    `positions[i]` and `phases[i]` belong to segment `active[i]`. Phases are
    radians in [0, 2*pi) and all-zero for architectures without phase
    shifters. Entries are Python ints and floats, so equal placements hash equal.
    """

    active: tuple[int, ...]
    positions: tuple[float, ...]
    phases: tuple[float, ...]

    def __post_init__(self):
        # tuple() of a list allocates once; of a generator it resizes, which held ~2 MB more over 200 sweeps.
        object.__setattr__(self, "active", tuple([int(m) for m in self.active]))
        object.__setattr__(self, "positions", tuple([float(x) for x in self.positions]))
        object.__setattr__(self, "phases", tuple([float(p) for p in self.phases]))
        if len(set(self.active)) != len(self.active):
            raise ValueError("active segments must be distinct")
        if not len(self.positions) == len(self.phases) == len(self.active):
            raise ValueError("positions and phases need one entry per active segment")

    @property
    def num_active(self) -> int:
        return len(self.active)

    def validate(self, layout: WaveguideLayout, params: SystemParams) -> None:
        """Raise ValueError if any segment-interval or spacing constraint fails."""
        for m, x in zip(self.active, self.positions):
            if not 0 <= m < layout.num_segments:
                raise ValueError(f"segment index {m} outside layout")
            lo, hi = layout.segment_interval(m)
            if not lo <= x <= hi:
                raise ValueError(f"antenna position {x} outside segment {m} interval [{lo}, {hi}]")
        # Rounding is monotone, so no pair's rounded gap is below the smallest of sorted neighbours.
        pos = sorted(self.positions)
        if any(b - a < params.min_spacing_m for a, b in zip(pos, pos[1:])):
            raise ValueError("minimum antenna spacing violated")


def build_centered_layout(num_segments: int, segment_length_m: float, height_m: float) -> WaveguideLayout:
    """Build a contiguous layout centered above x = 0.

    Segment m's feed point lands at -M*L/2 + m*L, so the M segments jointly
    cover [-M*L/2, M*L/2].
    """
    return WaveguideLayout(num_segments, segment_length_m, height_m, 0.0 - num_segments * segment_length_m / 2.0)


def uniform_draws(rng, count, num_users, region_x_m, region_y_m) -> tuple[np.ndarray, np.ndarray]:
    """The x and y, each (count, num_users), of `count` draws of users uniform over a centered rectangle.

    One `rng.random((count, 2, num_users))` call, draw by draw, x then y; each unit draw u is scaled as
    `Generator.uniform` scales it, low + (high - low) * u. So draw j has the same bits for every `count`.
    """
    u = rng.random((count, 2, num_users))
    (x_low, x_high), (y_low, y_high) = (-region_x_m / 2.0, region_x_m / 2.0), (-region_y_m / 2.0, region_y_m / 2.0)
    return x_low + (x_high - x_low) * u[:, 0], y_low + (y_high - y_low) * u[:, 1]


def sample_users(num_users, region_x_m, region_y_m, power_w, rng_seed) -> UserSet:
    """Draw users uniformly over a centered region_x_m by region_y_m rectangle.

    `rng_seed` may be an int, a sequence of ints or a `Generator`. The draw is
    `uniform_draws`'s one-draw case, deterministic given the seed; Monte Carlo
    realizations should derive their stream as (master_seed, realization_index)
    so results are order-independent.
    """
    if num_users < 1:
        raise ValueError("num_users must be at least 1")
    if region_x_m <= 0 or region_y_m <= 0:
        raise ValueError("region dimensions must be positive")
    x, y = uniform_draws(np.random.default_rng(rng_seed), 1, num_users, region_x_m, region_y_m)
    p = np.broadcast_to(np.asarray(power_w, dtype=float), (num_users,)).copy()
    return UserSet(x=x[0], y=y[0], power_w=p)
