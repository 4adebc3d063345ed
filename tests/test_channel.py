"""Channel coefficients and sum-rate.

Frozen expected values were computed independently of the implementation:
eta = c^2/(16 pi^2 fc^2) evaluated at 28 GHz with c = 299792458 gives
eta = 7.259481705540116e-07, sqrt(eta)/3 = 2.840086404307704e-04, and the
guided wavelength 0.0107068735 / 1.4 = 7.6477667857142865e-03.
"""

import numpy as np
import pytest
from oracles import (
    User,
    cascaded_gain,
    effective_channel,
    empty_placement,
    freespace_gain,
    params_28ghz,
    user_at,
    waveguide_gain,
    with_segment,
)

from swanopt.channel import cascaded_gain_matrix, placement_sum_rate, segment_gains, sum_rate
from swanopt.geometry import Placement, UserSet, build_centered_layout, sample_users

ETA_28GHZ = 7.259481705540116e-07
PROJECTION_GAIN_D3 = 2.840086404307704e-04  # sqrt(eta)/3


class TestFreespaceGain:
    def setup_method(self):
        self.params = params_28ghz()
        self.layout = build_centered_layout(3, 1.0, 3.0)

    def test_magnitude_at_projection(self):
        # User straight below the antenna: distance 3 m, magnitude sqrt(eta)/3.
        g = freespace_gain(User(0.3, 0.0, 0.01), 0.3, self.layout, self.params)
        assert abs(g) == pytest.approx(PROJECTION_GAIN_D3, rel=1e-12)

    def test_magnitude_times_distance_is_sqrt_eta(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            user = User(float(rng.uniform(-10, 10)), float(rng.uniform(-10, 10)), 0.01)
            x = float(rng.uniform(-1.5, 1.5))
            r = np.sqrt((user.x - x) ** 2 + 9.0 + user.y**2)
            g = freespace_gain(user, x, self.layout, self.params)
            assert abs(g) * r == pytest.approx(np.sqrt(self.params.eta), rel=1e-12)

    def test_mirror_symmetric_users_have_equal_gain(self):
        x = 0.25
        g1 = freespace_gain(User(x + 1.3, 2.0, 0.01), x, self.layout, self.params)
        g2 = freespace_gain(User(x - 1.3, 2.0, 0.01), x, self.layout, self.params)
        assert g1 == g2

    def test_phase_is_minus_wavenumber_times_distance(self):
        user = User(1.0, 2.0, 0.01)
        r = np.sqrt(1.0 + 9.0 + 4.0)
        g = freespace_gain(user, 0.0, self.layout, self.params)
        expected = (-self.params.wavenumber * r) % (2 * np.pi)
        assert np.angle(g) % (2 * np.pi) == pytest.approx(expected, abs=1e-9)

    def test_vectorized_over_positions(self):
        user = User(0.0, 1.0, 0.01)
        xs = np.linspace(-1.4, 1.4, 7)
        g = freespace_gain(user, xs, self.layout, self.params)
        assert g.shape == (7,)
        assert g[3] == freespace_gain(user, xs[3], self.layout, self.params)

    def test_magnitude_strictly_decreasing_in_offset(self):
        user = User(0.0, 2.0, 0.01)
        offsets = np.linspace(0.0, 1.5, 40)
        mags = np.abs(freespace_gain(user, offsets, self.layout, self.params))
        assert np.all(np.diff(mags) < 0)


class TestWaveguideGain:
    def setup_method(self):
        self.params = params_28ghz()

    def test_zero_length_is_unity(self):
        assert waveguide_gain(2.0, 2.0, self.params) == 1.0 + 0.0j

    def test_full_guided_wavelength_is_unity(self):
        g = waveguide_gain(self.params.guided_wavelength_m, 0.0, self.params)
        assert g == pytest.approx(1.0 + 0.0j, abs=1e-12)

    def test_half_meter_phase(self):
        # -2 pi * 0.5 / lambda_g reduced mod 2 pi, lambda_g at 28 GHz and n_eff 1.4.
        g = waveguide_gain(0.5, 0.0, self.params)
        assert abs(g) == pytest.approx(1.0, rel=1e-12)
        assert np.angle(g) % (2 * np.pi) == pytest.approx(3.9046059713231074, abs=1e-9)

    def test_attenuation_magnitude(self):
        p = params_28ghz(kappa_db_per_m=10.0)
        g = waveguide_gain(2.0, 0.0, p)
        assert abs(g) == pytest.approx(0.1, rel=1e-12)

    def test_rejects_antenna_before_feed(self):
        with pytest.raises(ValueError):
            waveguide_gain(-0.01, 0.0, self.params)


class TestCascadedGain:
    def setup_method(self):
        self.params = params_28ghz()
        self.layout = build_centered_layout(3, 1.0, 3.0)

    def test_at_feed_equals_freespace(self):
        user = User(0.4, -2.0, 0.01)
        feed = self.layout.feed_x[1]
        assert cascaded_gain(user, 1, feed, self.layout, self.params) == freespace_gain(
            user, feed, self.layout, self.params
        )

    def test_magnitude_feed_offset_independent_without_attenuation(self):
        user = User(0.1, 1.0, 0.01)
        mags = [abs(cascaded_gain(user, m, self.layout.feed_x[m] + 0.3, self.layout, self.params))
                for m in range(3)]
        # Same free-space distance pattern shifted by the segment pitch changes
        # the magnitude only through distance; compare against |h_o| directly.
        for m in range(3):
            r = np.sqrt((user.x - (self.layout.feed_x[m] + 0.3)) ** 2 + 10.0)
            assert mags[m] == pytest.approx(np.sqrt(self.params.eta) / r, rel=1e-12)

    def test_magnitude_at_projection(self):
        g = cascaded_gain(User(0.2, 0.0, 0.01), 1, 0.2, self.layout, self.params)
        assert abs(g) == pytest.approx(PROJECTION_GAIN_D3, rel=1e-12)

    def test_rejects_position_outside_segment(self):
        with pytest.raises(ValueError):
            cascaded_gain(User(0.0, 0.0, 0.01), 0, 0.0, self.layout, self.params)

    def test_segment_gains_matches_scalar_path(self):
        users = sample_users(3, 2.5, 10, 0.01, 21)
        pts = np.linspace(*self.layout.segment_interval(2), 9)
        block = segment_gains(users, 2, pts, self.layout, self.params)
        assert block.shape == (3, 9)
        for q in (0, 4, 8):
            column = segment_gains(users, 2, float(pts[q]), self.layout, self.params)
            assert column.shape == (3, 1)  # a scalar position is Q = 1
            assert np.array_equal(column[:, 0], block[:, q])
            for k in range(3):
                direct = cascaded_gain(user_at(users, k), 2, float(pts[q]), self.layout, self.params)
                assert block[k, q] == pytest.approx(direct, rel=1e-13)


class TestEffectiveChannel:
    def setup_method(self):
        self.params = params_28ghz()
        self.layout = build_centered_layout(4, 1.0, 3.0)

    def _random_placement(self, rng, phases=False):
        pl = empty_placement()
        for m in range(4):
            lo, hi = self.layout.segment_interval(m)
            pl = with_segment(pl, m, float(rng.uniform(lo, hi)),
                                 phase=float(rng.uniform(0, 2 * np.pi)) if phases else 0.0)
        return pl

    def test_single_segment_equals_cascaded(self):
        pl = with_segment(empty_placement(), 2, 0.3)
        user = User(0.5, 1.0, 0.01)
        h = effective_channel(pl, user, self.layout, self.params)
        assert h == pytest.approx(cascaded_gain(user, 2, 0.3, self.layout, self.params), rel=1e-13)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(5)
        user = User(0.7, -3.0, 0.01)
        for _ in range(25):
            pl = self._random_placement(rng, phases=True)
            h = effective_channel(pl, user, self.layout, self.params)
            cap = sum(
                abs(cascaded_gain(user, m, x, self.layout, self.params)) for m, x in zip(pl.active, pl.positions)
            ) / np.sqrt(pl.num_active)
            assert abs(h) <= cap * (1 + 1e-12)

    def test_analytic_phase_alignment_reaches_the_cap(self):
        rng = np.random.default_rng(6)
        user = User(-0.2, 2.0, 0.01)
        pl = self._random_placement(rng)
        phases = []
        total = 0.0
        for m, x in zip(pl.active, pl.positions):
            g = cascaded_gain(user, m, x, self.layout, self.params)
            phases.append(float(-np.angle(g)) % (2 * np.pi))
            total += abs(g)
        aligned = Placement(active=pl.active, positions=pl.positions, phases=phases)
        h = effective_channel(aligned, user, self.layout, self.params)
        assert abs(h) == pytest.approx(total / np.sqrt(pl.num_active), rel=1e-12)

    def test_zero_phase_channel_matches_closed_form(self):
        # Aggregate coefficient with all phase shifters at zero equals the
        # direct formula sqrt(eta) e^{-j k0 (r + n_eff l)} / (sqrt(M) r).
        rng = np.random.default_rng(7)
        pl = self._random_placement(rng)
        user = User(0.9, 4.0, 0.01)
        k0 = self.params.wavenumber
        total = 0.0 + 0.0j
        for m, x in zip(pl.active, pl.positions):
            r = np.sqrt((user.x - x) ** 2 + 9.0 + user.y**2)
            ell = x - self.layout.feed_x[m]
            total += np.sqrt(self.params.eta) * np.exp(-1j * k0 * (r + 1.4 * ell)) / r
        expected = total / 2.0
        h = effective_channel(pl, user, self.layout, self.params)
        assert h == pytest.approx(expected, rel=1e-12)

    def test_empty_placement_rejected(self):
        with pytest.raises(ValueError):
            effective_channel(empty_placement(), User(0, 0, 0.01), self.layout, self.params)

    def test_placement_sum_rate_consistent_with_per_user_path(self):
        rng = np.random.default_rng(8)
        users = sample_users(3, 3.5, 8, 0.01, 31)
        pl = self._random_placement(rng, phases=True)
        channels = [effective_channel(pl, user_at(users, k), self.layout, self.params) for k in range(3)]
        assert placement_sum_rate(users, pl, self.layout, self.params) == pytest.approx(
            sum_rate(channels, users, self.params), rel=1e-12
        )
        g = cascaded_gain_matrix(users, pl, self.layout, self.params)
        assert g.shape == (3, 4)


class TestSumRate:
    def setup_method(self):
        self.params = params_28ghz()

    def test_zero_channels_give_zero_rate(self):
        users = UserSet(x=np.zeros(3), y=np.zeros(3), power_w=np.full(3, 0.01))
        assert sum_rate(np.zeros(3, dtype=complex), users, self.params) == 0.0

    def test_single_user_projection_gain(self):
        # 10 dBm over -90 dBm noise with |h|^2 = eta/9: rate 9.657513317976857.
        users = UserSet(x=np.zeros(1), y=np.zeros(1), power_w=np.array([0.01]))
        h = np.array([np.sqrt(ETA_28GHZ) / 3.0 + 0.0j])
        assert sum_rate(h, users, self.params) == pytest.approx(9.657513317976857, rel=1e-12)

    def test_power_doubling_adds_one_bit_at_high_snr(self):
        users = UserSet(x=np.zeros(2), y=np.zeros(2), power_w=np.array([0.01, 0.02]))
        doubled = UserSet(x=np.zeros(2), y=np.zeros(2), power_w=np.array([0.02, 0.04]))
        h = np.array([np.sqrt(ETA_28GHZ) / 3.0, np.sqrt(ETA_28GHZ) / 5.0]).astype(complex)
        base = sum_rate(h, users, self.params)
        assert sum_rate(h, doubled, self.params) - base == pytest.approx(1.0, abs=0.01)

    def test_monotone_in_channel_gain(self):
        users = UserSet(x=np.zeros(1), y=np.zeros(1), power_w=np.array([0.01]))
        rates = [sum_rate(np.array([s * np.sqrt(ETA_28GHZ) / 3.0 + 0j]), users, self.params)
                 for s in (0.5, 1.0, 2.0, 4.0)]
        assert rates == sorted(rates)
        assert rates[0] < rates[-1]

    def test_channel_count_mismatch_rejected(self):
        users = UserSet(x=np.zeros(2), y=np.zeros(2), power_w=np.full(2, 0.01))
        with pytest.raises(ValueError):
            sum_rate(np.zeros(3, dtype=complex), users, self.params)
