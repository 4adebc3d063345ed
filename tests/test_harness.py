"""Config ingestion, sweep engine, CSV persistence, CLI."""

import json
import math
import subprocess
import sys
import tempfile
import weakref
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import PerDrawStream, bit_contract, cli_env, dispatch_children, row, rows, sweep_report

import swanopt.cli
import swanopt.harness as harness
import swanopt.optimize as optimize
from swanopt.cli import main as cli_main
from swanopt.geometry import sample_users
from swanopt.harness import (
    CSV_HEADER,
    MAX_REDRAWS,
    ExperimentConfig,
    _UserStream,
    run_bound_sweep,
    run_segment_sweep,
    run_single,
    run_user_sweep,
    sweep_csv_text,
    trace_csv_text,
    write_sweep_result,
)
from swanopt.optimize import greedy_hssa_type1, greedy_hssa_type2

REPO = Path(__file__).resolve().parents[1]
SHIPPED_CONFIGS = sorted(path for folder in ("configs", "perfbench/configs", "tests/data")
                         for path in (REPO / folder).glob("*.cfg"))

CONFIG_TEXT = """
# tiny experiment
num_users = 2
segment_sweep = 2, 3
grid_points = 30
realizations = 2
master_seed = 11
schemes = hssa-1, full-sa-1
output = out.csv
"""


class TestConfigParsing:
    def test_defaults_match_standard_setup(self):
        cfg = ExperimentConfig()
        assert cfg.carrier_freq_hz == 28e9
        assert cfg.n_eff == 1.4
        assert cfg.tx_power_dbm == 10.0
        assert cfg.noise_dbm == -90.0
        assert cfg.height_m == 3.0
        assert cfg.segment_length_m == 1.0
        assert cfg.region_x_m == 20.0 and cfg.region_y_m == 20.0
        assert cfg.grid_points == 1000
        params = cfg.system_params()
        assert params.min_spacing_m == pytest.approx(params.wavelength_m / 2, rel=1e-12)
        assert params.noise_power_w == pytest.approx(1e-12, rel=1e-12)
        assert cfg.tx_power_w == pytest.approx(0.01, rel=1e-12)

    def test_round_trips_from_text(self):
        cfg = ExperimentConfig.from_text(CONFIG_TEXT)
        assert cfg.num_users == 2
        assert cfg.segment_sweep == (2, 3)
        assert cfg.grid_points == 30
        assert cfg.realizations == 2
        assert cfg.master_seed == 11
        assert cfg.schemes == ("hssa-1", "full-sa-1")
        assert cfg.output == "out.csv"

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            ExperimentConfig.from_text("num_userz = 3\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ExperimentConfig.from_text("num_users = 3\nnum_users = 4\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="key = value"):
            ExperimentConfig.from_text("num_users: 3\n")

    def test_absolute_spacing_respected(self):
        cfg = ExperimentConfig.from_text("min_spacing_m = 0.25\n")
        assert cfg.system_params().min_spacing_m == 0.25

    @pytest.mark.parametrize("text", [
        "schemes = hssa-9\n",
        "realizations = 0\n",
        "segment_sweep =\n",
        "user_sweep = 0, 2\n",
        "grid_points = 1\n",
        "schemes = hssa-1, hssa-1\n",
        "master_seed = -1\n",
        "region_y_m = 0\n",
        "height_m = -3\n",
        "num_users = 0\nsegment_sweep = 2\n",
        "num_segments = 0\nsegment_sweep = 2\n",
        "kappa_db_per_m = 1e308\nsegment_length_m = 2\n",  # the attenuation over a segment overflows
        "schemes =\n",
    ])
    def test_invalid_values_rejected(self, text):
        with pytest.raises(ValueError):
            ExperimentConfig.from_text(text)

    def test_every_field_survives_canonical_text(self):
        cfg = ExperimentConfig(
            carrier_freq_hz=3.5e9, n_eff=1.7, kappa_db_per_m=0.1, min_spacing_m=0.0625,
            height_m=2.5, noise_dbm=-85.5, segment_length_m=0.8, num_segments=12, segment_sweep=(4, 8),
            num_users=3, user_sweep=(1, 5), region_x_m=15.0, region_y_m=1 / 3, tx_power_dbm=7.25,
            grid_points=300, ao_tol=1e-6, ao_max_iter=40, realizations=7, master_seed=99,
            schemes=("hssa-2", "bound-exact"), output="run.csv")
        default = ExperimentConfig()
        assert [f.name for f in fields(cfg) if getattr(cfg, f.name) == getattr(default, f.name)] == []
        parsed = ExperimentConfig.from_text(cfg.canonical_text())
        assert parsed == cfg and repr(parsed) == repr(cfg)  # repr tells 12 from 12.0

    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda path: path.relative_to(REPO).as_posix())
    def test_canonical_text_with_min_spacing_m_parses_back(self, path):
        # tests/data/degenerate_single_run.cfg is the one that sets min_spacing_m.
        cfg = ExperimentConfig.from_file(path)
        assert ExperimentConfig.from_text(cfg.canonical_text()) == cfg

    def test_every_scheme_kind_is_its_name_prefix(self):
        # The harness tells bound, full-SA and greedy schemes apart by these prefixes.
        for scheme in harness.SCHEMES:
            assert sum(scheme.startswith(kind) for kind in ("bound-", "full-sa-", "hssa-")) == 1

    def test_hash_is_stable_and_sensitive(self):
        a = ExperimentConfig.from_text(CONFIG_TEXT)
        b = ExperimentConfig.from_text(CONFIG_TEXT)
        assert a.config_hash() == b.config_hash()
        c = ExperimentConfig.from_text(CONFIG_TEXT.replace("master_seed = 11", "master_seed = 12"))
        assert c.config_hash() != a.config_hash()


def draw(stream, extent=None):
    """(users, bound_users, redraws) of a stream at a sweep point, as the sweep takes them."""
    if extent is None:
        return stream.users, stream.users, 0
    return (stream.users, *stream.inside(*extent))


class TestDrawRealization:
    def test_first_draw_matches_sample_users(self):
        cfg = ExperimentConfig(num_users=3)
        users, bound_users, redraws = draw(_UserStream(cfg, 3, 5))
        direct = sample_users(3, 20, 20, cfg.tx_power_w, [cfg.master_seed, 5])
        assert np.array_equal(users.x, direct.x) and np.array_equal(users.y, direct.y)
        assert redraws == 0 and bound_users is users

    def test_resampling_confines_bound_users_only(self):
        cfg = ExperimentConfig(num_users=2, master_seed=3)
        layout = cfg.layout_for(3)
        users, bound_users, redraws = draw(_UserStream(cfg, 2, 0), extent=layout.extent)
        assert np.all(np.abs(bound_users.x) <= 1.5)
        assert redraws >= 1  # a 20 m region almost surely needs redraws for a 3 m extent
        direct = sample_users(2, 20, 20, cfg.tx_power_w, [3, 0])
        assert np.array_equal(users.x, direct.x)

    @staticmethod
    def outcome(stream, extent):
        try:
            return draw(stream, extent)
        except ValueError as exc:
            return str(exc)

    @staticmethod
    def redraw_oracle(config, num_users, realization, extent, cap):
        """Redraw from a fresh stream until every projection is inside; None past the cap."""
        stream = PerDrawStream(config, num_users, realization)
        if extent is None:
            return stream.users, stream.users, 0
        found = stream.inside(*extent, cap)
        return None if found is None else (stream.users, *found)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        num_users=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        region=st.tuples(st.floats(1.0, 50.0), st.floats(1.0, 50.0)),
        cap=st.one_of(st.integers(0, 6), st.just(MAX_REDRAWS)),
        # (left end, width) as fractions of region_x_m; None is an optimizer-only point
        extents=st.lists(st.one_of(st.none(), st.tuples(st.floats(-0.6, 0.2), st.floats(0.25, 1.2))),
                         min_size=1, max_size=5),
        order=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 4)), min_size=1, max_size=12),
    )
    def test_kept_streams_match_fresh_draws(self, num_users, seed, region, cap, extents, order):
        # Any order of realizations and extents, repeated and non-nested ones
        # included: reusing a realization's stream gives a fresh call's (and
        # the redraw loop's) users, bound users and redraw count, or the same
        # cap error.
        cfg = ExperimentConfig(region_x_m=region[0], region_y_m=region[1], master_seed=seed)
        streams = {}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(harness, "MAX_REDRAWS", cap)
            for r, i in order:
                frac = extents[i % len(extents)]
                extent = None if frac is None else (region[0] * frac[0], region[0] * (frac[0] + frac[1]))
                if r not in streams:
                    streams[r] = _UserStream(cfg, num_users, r)
                kept = self.outcome(streams[r], extent)
                fresh = self.outcome(_UserStream(cfg, num_users, r), extent)
                want = self.redraw_oracle(cfg, num_users, r, extent, cap)
                if want is None:
                    assert isinstance(kept, str) and "redraws" in kept and kept == fresh
                    continue
                for got in (kept, fresh):
                    assert not isinstance(got, str) and got[2] == want[2]
                    for a, b in zip(got[:2], want[:2]):
                        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
                        assert np.array_equal(a.power_w, b.power_w)


class TestBlockStream:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        num_users=st.integers(1, 7),
        seed=st.integers(0, 2**32 - 1),
        region=st.tuples(st.floats(1.0, 50.0), st.floats(1.0, 50.0)),
        cap=st.integers(0, 300),
        # (left end, width) as fractions of region_x_m, in the order the points ask for them
        extents=st.lists(st.tuples(st.floats(-0.6, 0.2), st.floats(0.05, 1.2)), min_size=1, max_size=8),
    )
    def test_blocks_match_one_sample_users_call_per_draw(self, num_users, seed, region, cap, extents):
        # The stream's block draws give the same accepted draw, index and
        # bytes as one `sample_users` call per draw, and fail at the same cap.
        cfg = ExperimentConfig(region_x_m=region[0], region_y_m=region[1], master_seed=seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(harness, "MAX_REDRAWS", cap)
            stream, oracle = _UserStream(cfg, num_users, 2), PerDrawStream(cfg, num_users, 2)
            for left, width in extents:
                extent = (region[0] * left, region[0] * (left + width))
                want = oracle.inside(*extent, cap)
                if want is None:
                    with pytest.raises(ValueError, match=f"within {cap} redraws"):
                        stream.inside(*extent)
                else:
                    users, j = stream.inside(*extent)
                    assert j == want[1]
                    for got, expected in ((users, want[0]), (stream.users, oracle.users)):
                        assert got.x.tobytes() == expected.x.tobytes() and got.y.tobytes() == expected.y.tobytes()
                        assert got.power_w.tobytes() == expected.power_w.tobytes()
                assert len(stream.draws) <= cap + 1


class TestSweepEngine:
    def make_config(self, **kw):
        base = dict(num_users=2, segment_sweep=(2, 3), grid_points=30, realizations=2,
                    master_seed=11, schemes=("hssa-1", "full-sa-1"))
        base.update(kw)
        return ExperimentConfig(**base)

    def test_row_grid_is_complete_and_ordered(self):
        res = run_segment_sweep(self.make_config())
        assert len(rows(res)) == 4
        assert [(r.sweep_value, r.scheme) for r in rows(res)] == [
            (2, "hssa-1"), (2, "full-sa-1"), (3, "hssa-1"), (3, "full-sa-1")]
        assert all(r.sweep_var == "M" and r.n_real == 2 and r.seed == 11 for r in rows(res))

    def test_reruns_are_byte_identical(self):
        cfg = self.make_config()
        a = sweep_csv_text(run_segment_sweep(cfg))
        b = sweep_csv_text(run_segment_sweep(cfg))
        assert a == b
        assert a.startswith(CSV_HEADER + "\n")
        assert a.endswith("\n") and "\r" not in a

    def test_bound_resampling_does_not_leak_into_optimizers(self):
        with_bounds = run_segment_sweep(self.make_config(schemes=("bound-integral", "hssa-1")))
        without = run_segment_sweep(self.make_config(schemes=("hssa-1",)))
        for m in (2, 3):
            assert row(with_bounds, m, "hssa-1").mean_rate == row(without, m, "hssa-1").mean_rate
        assert any(v > 0 for v in with_bounds.redraws.sum(axis=1))
        assert all(v == 0 for v in without.redraws.sum(axis=1))

    def test_bound_scheme_dominates_optimizers_with_paired_seeds(self):
        res = run_segment_sweep(self.make_config(
            segment_sweep=(20,), schemes=("bound-exact", "hssa-1", "full-sa-1"), realizations=3))
        cap = row(res, 20, "bound-exact").mean_rate
        assert row(res, 20, "hssa-1").mean_rate <= cap
        assert row(res, 20, "full-sa-1").mean_rate <= cap

    def test_bound_sweep_requires_a_bound_scheme(self):
        with pytest.raises(ValueError, match="bound"):
            run_bound_sweep(self.make_config())
        res = run_bound_sweep(self.make_config(schemes=("bound-integral",), segment_sweep=(4, 5)))
        assert [r.scheme for r in rows(res)] == ["bound-integral", "bound-integral"]

    def test_missing_sweep_or_users_rejected(self):
        with pytest.raises(ValueError, match="segment_sweep"):
            run_segment_sweep(self.make_config(segment_sweep=None, num_segments=4))
        with pytest.raises(ValueError, match="num_users"):
            run_segment_sweep(self.make_config(num_users=None))
        with pytest.raises(ValueError, match="user_sweep"):
            run_user_sweep(self.make_config())
        with pytest.raises(ValueError, match="num_segments"):
            run_user_sweep(self.make_config(segment_sweep=None, user_sweep=(1, 2)))

    @pytest.mark.parametrize("schemes, per_segment", [
        (("hssa-1", "hssa-2", "full-sa-1", "full-sa-2"), 2),  # one table, plus midpoints both full-SA schemes share
        (("full-sa-1",), 2),
        (("bound-exact", "bound-integral"), 0),
    ])
    def test_gain_kernel_calls_per_realization(self, monkeypatch, schemes, per_segment):
        calls = []
        kernel = optimize.segment_gains

        def counting(*args, **kwargs):
            calls.append(args[1])
            return kernel(*args, **kwargs)

        monkeypatch.setattr(optimize, "segment_gains", counting)
        cfg = self.make_config(schemes=schemes, realizations=3, segment_sweep=(2, 5))
        shared = run_segment_sweep(cfg)
        assert len(calls) == 3 * per_segment * (2 + 5)
        if "hssa-1" in schemes:
            calls.clear()
            run_single(replace(cfg, num_segments=5))  # both greedy schemes share one table
            assert len(calls) == 5
        monkeypatch.setattr(optimize, "_cached", lambda cache, key, compute: compute())
        alone = run_segment_sweep(cfg)  # each scheme building its own table
        assert np.array_equal(alone.rates, shared.rates) and np.array_equal(alone.redraws, shared.redraws)

    @pytest.mark.parametrize("sweep, spacing, intervals, midpoint_intervals", [
        ((2, 1, 4, 2), None, 5, 5),  # the intervals of M = 2 are among those of M = 4
        ((1, 2, 1, 2), 1.5, 3, 1),  # midpoints 1 m apart are too close: M = 2 starts from the leftmost placement
    ])
    def test_gain_kernel_runs_once_per_distinct_interval(self, monkeypatch, sweep, spacing, intervals,
                                                         midpoint_intervals):
        calls = {"grid": 0, "midpoint": 0}
        kernel = optimize.segment_gains

        def counting(users, segment, antenna_x, *args):
            calls["midpoint" if np.ndim(antenna_x) == 0 else "grid"] += 1
            return kernel(users, segment, antenna_x, *args)

        monkeypatch.setattr(optimize, "segment_gains", counting)
        run_segment_sweep(self.make_config(schemes=("hssa-1", "hssa-2", "full-sa-1", "full-sa-2"), realizations=2,
                                           segment_sweep=sweep, min_spacing_m=spacing))
        assert calls == {"grid": 2 * intervals, "midpoint": 2 * midpoint_intervals}

    @pytest.mark.parametrize("run, changes", [
        (run_segment_sweep, dict(segment_sweep=(8, 2, 5, 8))),  # repeated and out-of-order points
        (run_segment_sweep, dict(segment_sweep=(7, 3, 10, 7), segment_length_m=0.3, kappa_db_per_m=0.08)),  # no nesting
        (run_user_sweep, dict(segment_sweep=None, num_segments=6, num_users=None, user_sweep=(2, 3, 3, 1, 3))),
        (run_segment_sweep, dict(segment_sweep=(4, 2, 4), schemes=(
            "bound-exact", "hssa-1", "full-sa-2", "bound-integral", "full-sa-1", "hssa-2"))),
    ])
    def test_cached_blocks_give_the_bytes_of_fresh_ones(self, monkeypatch, run, changes):
        cfg = self.make_config(**{"schemes": ("hssa-1", "hssa-2", "full-sa-1", "full-sa-2"), "realizations": 3,
                                  **changes})
        cached = sweep_csv_text(run(cfg))
        monkeypatch.setattr(optimize, "_cached", lambda cache, key, compute: compute())
        assert sweep_csv_text(run(cfg)) == cached

    def test_warns_when_coverage_below_region(self):
        with pytest.warns(RuntimeWarning, match="narrower"):
            run_segment_sweep(self.make_config(schemes=("bound-integral",), segment_sweep=(2,)))

    def test_one_coverage_warning_lists_the_narrow_points(self):
        with pytest.warns(RuntimeWarning, match="narrower") as record:
            run_segment_sweep(self.make_config(schemes=("bound-integral",), segment_sweep=(2, 30, 3, 2)))
        assert len(record) == 1 and "at M = 2, 3;" in str(record[0].message)

    @pytest.mark.parametrize("run, changes", [
        (run_segment_sweep, dict(segment_sweep=(2,))),
        (run_bound_sweep, dict(segment_sweep=(2,))),
        (run_user_sweep, dict(segment_sweep=None, num_segments=2, num_users=None, user_sweep=(1,))),
    ], ids=["segment", "bound", "user"])
    def test_coverage_warning_names_the_line_that_called_the_runner(self, run, changes):
        with pytest.warns(RuntimeWarning, match="narrower") as record:
            run(self.make_config(schemes=("bound-integral",), realizations=1, **changes))
        assert (record[0].filename, record[0].lineno) == (__file__, sys._getframe().f_lineno - 1)

    def test_no_warning_for_optimizers_on_a_narrow_waveguide(self):
        # Only the bound schemes resample, so an optimizer-only sweep has nothing to warn about.
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error", RuntimeWarning)
            run_segment_sweep(self.make_config(segment_sweep=(2,), realizations=1))

    def test_no_warning_when_segments_cover_region(self):
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            run_segment_sweep(self.make_config(schemes=("hssa-1",), segment_sweep=(20,),
                                               realizations=1))

    def test_greedy_means_nondecreasing_in_segment_count_within_noise(self):
        # Adding available segments cannot hurt the best stored level beyond
        # Monte Carlo noise; check mean(M2) >= mean(M1) - 2 SE for M2 > M1.
        cfg = self.make_config(segment_sweep=(2, 4, 6, 8), grid_points=50,
                               realizations=10, schemes=("hssa-1", "hssa-2"))
        res = run_segment_sweep(cfg)
        for scheme in cfg.schemes:
            point_rows = [row(res, m, scheme) for m in (2, 4, 6, 8)]
            for earlier, later in zip(point_rows, point_rows[1:]):
                slack = 2 * earlier.std_rate / np.sqrt(earlier.n_real)
                assert later.mean_rate >= earlier.mean_rate - slack

    def test_user_sweep_points_match_their_own_sweeps(self):
        # Kept draws belong to one user count; a new count starts a new
        # stream. Within one count, a point that needs fewer redraws than the
        # point before it (segment counts out of order) reuses kept draws.
        user_cfg = self.make_config(segment_sweep=None, num_segments=6, num_users=None, user_sweep=(2, 1, 3),
                                    realizations=8, schemes=("bound-exact", "hssa-1"))
        segment_cfg = self.make_config(segment_sweep=(8, 2, 5), realizations=8,
                                       schemes=("bound-exact", "hssa-1", "full-sa-1"))
        for run, cfg, field in ((run_user_sweep, user_cfg, "user_sweep"),
                                (run_segment_sweep, segment_cfg, "segment_sweep")):
            res = run(cfg)
            for value in getattr(cfg, field):
                alone = run(replace(cfg, **{field: (value,)}))
                assert [row(res, value, s) for s in cfg.schemes] == [row(alone, value, s) for s in cfg.schemes]
                assert res.redraws[res.values.index(value)].sum() == alone.redraws.sum()
        assert res.redraws[res.values.index(2)].sum() > 0

    def test_one_user_stream_alive_at_a_time(self, monkeypatch):
        live = weakref.WeakSet()
        most = []

        class CountedStream(harness._UserStream):
            def __init__(self, *args):
                most.append(len(live) + 1)
                live.add(self)
                super().__init__(*args)

        monkeypatch.setattr(harness, "_UserStream", CountedStream)
        run_user_sweep(self.make_config(segment_sweep=None, num_segments=6, num_users=None, user_sweep=(2, 1, 1, 3),
                                        realizations=3, schemes=("bound-exact", "hssa-1")))
        assert len(most) == 3 * 3 and max(most) == 1

    def test_held_user_sets_lose_their_caches_with_their_stream(self, monkeypatch):
        # A scheme's caller, such as a tracing wrapper, may keep every user set it was given; their caches
        # (grid-gain tables and bound terms) must still go when the stream does, as they did with a stream's cache.
        held = []
        for name in ("exact_amplitude_bound", "greedy_hssa_type1"):
            def holding(users, *args, fn=getattr(harness, name)):
                held.append(users)
                return fn(users, *args)

            monkeypatch.setattr(harness, name, holding)
        run_user_sweep(self.make_config(segment_sweep=None, num_segments=6, num_users=None, user_sweep=(2, 1, 1, 3),
                                        realizations=3, schemes=("bound-exact", "hssa-1")))
        assert len(held) == 2 * 4 * 3 and not any(users.cache for users in held)

    def test_each_scheme_runs_once_per_point_and_realization(self, tmp_path, monkeypatch):
        # Record every call of the five scheme functions as the harness makes
        # it, by CSV label and segment count: the users it got and its rate.
        labels = {"exact_amplitude_bound": "bound-exact", "sum_rate_bound": "bound-integral",
                  "greedy_hssa_type1": "hssa-1", "greedy_hssa_type2": "hssa-2"}
        calls = {}
        for name in (*labels, "full_sa_baseline"):
            def recording(*args, fn=getattr(harness, name), name=name, **kwargs):
                result = fn(*args, **kwargs)
                if name == "full_sa_baseline":  # the variant must be passed, 5th or by name
                    variant = args[4] if len(args) > 4 else kwargs["variant"]
                    label, rate = {"type1": "full-sa-1", "type2": "full-sa-2"}[variant], result[1]
                else:
                    label = labels[name]
                    rate = result if label.startswith("bound-") else result.best_rate
                calls.setdefault((label, args[1].num_segments), []).append((args[0].x.tobytes(), rate))
                return result

            monkeypatch.setattr(harness, name, recording)
        # At M = 20 a greedy's best level is not always full activation.
        cfg = self.make_config(segment_sweep=(20, 3), schemes=(
            "hssa-2", "full-sa-2", "bound-integral", "hssa-1", "bound-exact", "full-sa-1"))
        res = run_segment_sweep(cfg)
        draws = {_UserStream(cfg, 2, r).users.x.tobytes() for r in range(2)}
        assert sorted(calls) == sorted((s, m) for s in cfg.schemes for m in cfg.segment_sweep)
        for (scheme, m), seen in calls.items():
            users = {x for x, _ in seen}
            assert len(seen) == 2 and len(users) == 2  # one call in each realization
            if not scheme.startswith("bound-"):
                assert users == draws
            assert row(res, m, scheme).mean_rate == np.mean([rate for _, rate in seen])
            assert [rate for _, rate in seen] == list(res.rates[res.values.index(m), res.config.schemes.index(scheme)])
        write_sweep_result(res, tmp_path / "sweep.csv")
        meta = json.loads((tmp_path / "sweep.csv.meta.json").read_text(encoding="utf-8"))
        assert res.redraws.sum() > 0
        assert meta["resample_counts"] == {str(m): int(counts.sum()) for m, counts in zip(res.values, res.redraws)}

    def test_user_sweep_single_user_point_matches_segment_sweep(self):
        ucfg = self.make_config(segment_sweep=None, num_segments=4, num_users=None,
                                user_sweep=(1,), schemes=("hssa-1",))
        scfg = self.make_config(segment_sweep=(4,), num_users=1, schemes=("hssa-1",))
        urow = row(run_user_sweep(ucfg), 1, "hssa-1")
        srow = row(run_segment_sweep(scfg), 4, "hssa-1")
        assert urow.mean_rate == srow.mean_rate
        assert urow.sweep_var == "K" and srow.sweep_var == "M"


class TestSingleRun:
    def make_config(self, **kw):
        base = dict(num_users=2, num_segments=3, grid_points=25, master_seed=7,
                    schemes=("hssa-1", "hssa-2"))
        base.update(kw)
        return ExperimentConfig(**base)

    def test_traces_match_library_calls(self):
        cfg = self.make_config()
        traces = run_single(cfg)
        params = cfg.system_params()
        layout = cfg.layout_for(3)
        users, _, _ = draw(_UserStream(cfg, 2, 0))
        direct1 = greedy_hssa_type1(users, layout, params, 25)
        direct2 = greedy_hssa_type2(users, layout, params, 25)
        assert [l.rate for l in traces["hssa-1"].levels] == [l.rate for l in direct1.levels]
        assert [l.rate for l in traces["hssa-2"].levels] == [l.rate for l in direct2.levels]

    def test_single_segment_gives_one_row(self):
        traces = run_single(self.make_config(num_segments=1, schemes=("hssa-1",)))
        text = trace_csv_text(traces)
        lines = text.strip().split("\n")
        assert len(lines) == 2
        assert lines[1].startswith("hssa-1,1,")
        assert lines[1].endswith(",0,1")  # not degenerate, flagged best

    def test_best_flag_marks_the_maximum(self):
        traces = run_single(self.make_config())
        text = trace_csv_text(traces)
        for scheme, trace in traces.items():
            flagged = [line for line in text.strip().split("\n")[1:]
                       if line.startswith(f"{scheme},") and line.endswith(",1")]
            assert len(flagged) == 1
            level = int(flagged[0].split(",")[1])
            assert trace.levels[level - 1].rate == max(l.rate for l in trace.levels)

    def test_other_schemes_are_left_out(self, monkeypatch):
        # A single run runs only the greedy schemes, on the users and rates of realization 0 of the sweep.
        cfg = self.make_config(schemes=("bound-exact", "hssa-2", "full-sa-1", "hssa-1"))
        sweep = run_segment_sweep(replace(cfg, segment_sweep=(cfg.num_segments,), realizations=1))

        def refuse(*args, **kwargs):
            raise AssertionError("a single run called a bound or full-SA scheme")

        for name in ("exact_amplitude_bound", "sum_rate_bound", "full_sa_baseline"):
            monkeypatch.setattr(harness, name, refuse)
        traces = run_single(cfg)
        assert trace_csv_text(traces) == trace_csv_text(run_single(self.make_config()))
        for scheme, trace in traces.items():
            assert trace.best_rate.hex() == sweep.rates[0, cfg.schemes.index(scheme), 0].hex()

    def test_requires_greedy_scheme_and_fixed_sizes(self):
        with pytest.raises(ValueError, match="hssa"):
            run_single(self.make_config(schemes=("full-sa-1",)))
        with pytest.raises(ValueError, match="num_segments"):
            run_single(self.make_config(num_segments=None))


class TestReferenceTrace:
    # Recorded from configs/single_run.cfg before the greedy search moved to
    # cached gain columns; the rewrite must reproduce it byte for byte.
    REFERENCE = Path(__file__).parent / "data" / "single_run_trace.csv"
    CONFIG = Path(__file__).parents[1] / "configs" / "single_run.cfg"

    def test_single_run_matches_recorded_trace(self):
        got = trace_csv_text(run_single(ExperimentConfig.from_file(self.CONFIG)))
        assert got == self.REFERENCE.read_bytes().decode("utf-8"), bit_contract(self.REFERENCE)


class TestBenchmarkReferences:
    # The benchmark's recorded sweep CSVs at their configs' own seeds; the
    # optimizers and the bound sweep must keep reproducing them byte for
    # byte. The sidecars' redraw counts were recorded alongside them.
    BENCH = Path(__file__).parents[1] / "perfbench"
    COMMANDS = {"desk-sweep": "segment-sweep", "switch-only": "segment-sweep", "bound-sweep": "bound-sweep"}
    RESAMPLE_COUNTS = Path(__file__).parent / "data" / "reference_resample_counts.json"

    # Each greedy scheme's GreedyTrace counts summed over a sweep: (ao_runs,
    # ao_sweeps, ao_cap_hits, grid_searches). hssa-2 searches every inactive
    # segment at every level, M(M+1)/2 per run here (no segment is ever fully
    # blocked), and solves one AO problem per search. An unpruned hssa-1
    # would run as many searches, 2132 on desk-sweep and 4264 on
    # switch-only; its bound pruning leaves 561 and 763, and it runs no AO.
    COUNTS = {"desk-sweep": {"hssa-1": (0, 0, 0, 561), "hssa-2": (2132, 10964, 0, 2132)},
              "switch-only": {"hssa-1": (0, 0, 0, 763)}, "bound-sweep": {}}

    @pytest.mark.parametrize("workload", ["desk-sweep", "switch-only", "bound-sweep"])
    def test_cli_reproduces_reference_bytes(self, tmp_path, monkeypatch, workload):
        traces = {"hssa-1": [], "hssa-2": []}
        for scheme, search in (("hssa-1", greedy_hssa_type1), ("hssa-2", greedy_hssa_type2)):
            def recording(*args, search=search, runs=traces[scheme], **kwargs):
                runs.append(search(*args, **kwargs))
                return runs[-1]
            monkeypatch.setattr(harness, search.__name__, recording)
        out = tmp_path / f"{workload}.csv"
        config = self.BENCH / "configs" / f"{workload}.cfg"
        assert cli_main([self.COMMANDS[workload], "--config", str(config), "--output", str(out), "--quiet"]) == 0
        reference = self.BENCH / "reference" / f"{workload}.csv"
        assert out.read_bytes() == reference.read_bytes(), bit_contract(reference)
        meta = json.loads(Path(f"{out}.meta.json").read_text(encoding="utf-8"))
        assert meta["resample_counts"] == json.loads(self.RESAMPLE_COUNTS.read_text(encoding="utf-8"))[workload]
        counts = {scheme: tuple(sum(getattr(t, name) for t in runs)
                                for name in ("ao_runs", "ao_sweeps", "ao_cap_hits", "grid_searches"))
                  for scheme, runs in traces.items() if runs}
        assert counts == self.COUNTS[workload]
        for trace in traces["hssa-2"]:
            assert trace.grid_searches == len(trace.levels) * (len(trace.levels) + 1) // 2


class TestDispatchLevels:
    # The byte references hold at one NumPy dispatch level only (see
    # `bit_contract`). Across levels the contract is numeric: each perfbench
    # config's CSV keeps every other cell, every mean within 4 ulps and
    # every std_rate within 1e-12 relative of the default dispatch's. Each
    # of `DISPATCH_SETTINGS` runs in its own child interpreter.
    RUNS = {"desk-sweep": "run_segment_sweep", "switch-only": "run_segment_sweep", "bound-sweep": "run_bound_sweep"}

    def test_every_dispatch_level_keeps_the_rates_within_the_contract(self):
        runs = [(name, run, str(TestBenchmarkReferences.BENCH / "configs" / f"{name}.cfg"))
                for name, run in self.RUNS.items()]
        script = "import json, sys, oracles; print(oracles.sweep_report(json.loads(sys.argv[1])))"
        children = dispatch_children(script, json.dumps(runs))
        default = json.loads(sweep_report(runs))
        covered = [f"default: {default['targets']}"]
        for setting, child in children:
            out, err = child.communicate(timeout=300)
            assert child.returncode == 0, err
            report = json.loads(out)
            covered.append(f"NPY_DISABLE_CPU_FEATURES={setting!r}: {report['targets'] or 'the baseline'}")
            for name, text in default["csv"].items():
                where = f"{name} differs beyond the contract; dispatch targets covered: {'; '.join(covered)}"
                got, want = report["csv"][name].splitlines(), text.splitlines()
                assert got[0] == want[0] and len(got) == len(want), where
                for line, ref in zip(got[1:], want[1:]):
                    cells, ref_cells = line.split(","), ref.split(",")
                    assert cells[:3] + cells[5:] == ref_cells[:3] + ref_cells[5:], where
                    mean, std, ref_mean, ref_std = map(float, cells[3:5] + ref_cells[3:5])
                    assert abs(mean - ref_mean) <= 4 * np.spacing(abs(ref_mean)), where
                    assert std == pytest.approx(ref_std, rel=1e-12, abs=0), where
        print("dispatch targets covered: " + "; ".join(covered))


class TestNonNestingReferences:
    # Six-scheme sweeps of 0.3 m segments, whose layouts do not nest, with
    # bound redraws and repeated points; their CSVs and sidecars were
    # recorded with the configs beside them and must keep their bytes. The
    # single run's 0.5 m spacing leaves hssa-1's levels 5-6 and hssa-2's
    # levels 4-6 without a feasible grid point; both schemes' best level is
    # 3, and hssa-2's degenerate levels tie with it on rate, so its trace
    # pins the empty segment and position cells, every other level's
    # committed antenna and the best flag on tied rates.
    DATA = Path(__file__).parent / "data"

    @pytest.mark.parametrize("command, name", [("segment-sweep", "nonnesting_segment_sweep"),
                                               ("user-sweep", "nonnesting_user_sweep"),
                                               ("single-run", "degenerate_single_run")])
    def test_cli_reproduces_reference_bytes(self, tmp_path, command, name):
        out = tmp_path / f"{name}.csv"
        assert cli_main([command, "--config", str(self.DATA / f"{name}.cfg"), "--output", str(out), "--quiet"]) == 0
        for suffix in ("", ".meta.json"):
            reference = self.DATA / f"{name}.csv{suffix}"
            assert Path(f"{out}{suffix}").read_bytes() == reference.read_bytes(), bit_contract(reference)

    def test_config_hash_leaves_out_the_output_path(self, tmp_path):
        config = str(self.DATA / "degenerate_single_run.cfg")
        hashes = set()
        for out in (tmp_path / "x.csv", tmp_path / "sub" / "x.csv"):
            out.parent.mkdir(exist_ok=True)
            assert cli_main(["single-run", "--config", config, "--output", str(out), "--quiet"]) == 0
            hashes.add(json.loads(Path(f"{out}.meta.json").read_text())["config_sha256"])
        assert len(hashes) == 1


class TestPersistence:
    def test_csv_and_sidecar_written(self, tmp_path):
        cfg = ExperimentConfig(num_users=1, segment_sweep=(2,), grid_points=20,
                               realizations=2, schemes=("bound-integral", "hssa-1"))
        res = run_segment_sweep(cfg)
        out = tmp_path / "sweep.csv"
        write_sweep_result(res, out)
        text = out.read_bytes().decode()
        assert text == sweep_csv_text(res)
        meta = json.loads((tmp_path / "sweep.csv.meta.json").read_text())
        assert meta["config_sha256"] == cfg.config_hash()
        assert meta["sweep_var"] == "M"
        assert meta["tool_version"]
        assert "2" in meta["resample_counts"]
        write_sweep_result(res, tmp_path / "again.csv")
        assert (tmp_path / "again.csv.meta.json").read_bytes() == (tmp_path / "sweep.csv.meta.json").read_bytes()

    def test_tool_version_matches_pyproject(self):
        # Every sidecar records TOOL_VERSION; the package metadata is not read under PYTHONPATH=src.
        tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
        with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as handle:
            assert harness.TOOL_VERSION == tomllib.load(handle)["project"]["version"]

    def test_float_formatting_has_full_precision(self):
        cfg = ExperimentConfig(num_users=1, segment_sweep=(2,), grid_points=20,
                               realizations=2, schemes=("hssa-1",))
        res = run_segment_sweep(cfg)
        cell = sweep_csv_text(res).strip().split("\n")[1].split(",")[3]
        assert float(cell) == np.mean(res.rates[0, 0])


class TestCli:
    def write_config(self, tmp_path, text):
        path = tmp_path / "cfg.txt"
        path.write_text(text)
        return str(path)

    def test_segment_sweep_end_to_end(self, tmp_path, capsys, monkeypatch):
        formatted = []
        monkeypatch.setattr(harness, "sweep_csv_text", lambda result: formatted.append(1) or sweep_csv_text(result))
        cfg = self.write_config(tmp_path, CONFIG_TEXT)
        out = tmp_path / "run.csv"
        code = cli_main(["segment-sweep", "--config", cfg, "--output", str(out)])
        assert code == 0
        assert out.exists() and (tmp_path / "run.csv.meta.json").exists()
        stdout = capsys.readouterr().out
        assert stdout.startswith(out.read_text()) and CSV_HEADER in stdout and "wrote" in stdout
        assert len(formatted) == 1  # the printed text is the written text

    def test_quiet_suppresses_summary(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, CONFIG_TEXT)
        out = tmp_path / "run.csv"
        assert cli_main(["segment-sweep", "--config", cfg, "--output", str(out), "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_flag_overrides_change_the_result(self, tmp_path):
        cfg = self.write_config(tmp_path, CONFIG_TEXT)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli_main(["segment-sweep", "--config", cfg, "--output", str(out1), "--quiet"]) == 0
        assert cli_main(["segment-sweep", "--config", cfg, "--output", str(out2),
                         "--seed", "99", "--realizations", "3", "--quiet"]) == 0
        rows1 = out1.read_text().strip().split("\n")[1:]
        rows2 = out2.read_text().strip().split("\n")[1:]
        assert rows1 != rows2
        assert all(r.endswith(",3,99") for r in rows2)

    def test_single_run_writes_trace(self, tmp_path):
        text = "num_users = 2\nnum_segments = 2\ngrid_points = 20\nschemes = hssa-2\n"
        cfg = self.write_config(tmp_path, text)
        out = tmp_path / "trace.csv"
        assert cli_main(["single-run", "--config", cfg, "--output", str(out), "--quiet"]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("scheme,level,segment")
        assert len(lines) == 3

    def test_bad_config_reports_error(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, "bogus_key = 1\n")
        assert cli_main(["bound-sweep", "--config", cfg, "--output", "x.csv"]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_output_reports_error(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, "num_users = 1\nsegment_sweep = 2\nschemes = bound-integral\n")
        assert cli_main(["bound-sweep", "--config", cfg]) == 2
        assert "output" in capsys.readouterr().err

    @pytest.mark.parametrize("text, flags, key", [
        ("master_seed = -1\n", [], "master_seed"),
        ("", ["--seed", "-1"], "master_seed"),
        ("schemes = hssa-1, bound-exact, hssa-1\n", [], "schemes"),
        ("num_segments = 0\n", [], "num_segments"),
    ])
    def test_bad_seed_or_repeated_scheme_reports_error(self, tmp_path, capsys, text, flags, key):
        cfg = self.write_config(tmp_path, "num_users = 1\nsegment_sweep = 2\ngrid_points = 20\n" + text)
        out = tmp_path / "run.csv"
        assert cli_main(["segment-sweep", "--config", cfg, "--output", str(out), "--quiet", *flags]) == 2
        captured = capsys.readouterr()
        assert key in captured.err and not out.exists()

    def test_out_of_memory_exits_2_naming_the_size_keys(self, tmp_path, capsys, monkeypatch):
        cfg = self.write_config(tmp_path, CONFIG_TEXT)
        out = tmp_path / "run.csv"
        # NumPy's error names the allocation; a bare MemoryError (from Python's own allocator) has no text.
        cases = [(MemoryError("Unable to allocate 745. GiB for an array"), "745. GiB"), (MemoryError(), "MemoryError")]
        for error, shown in cases:
            def exhausted(config):
                raise error

            monkeypatch.setitem(swanopt.cli._RUNNERS, "segment-sweep", exhausted)
            assert cli_main(["segment-sweep", "--config", cfg, "--output", str(out), "--quiet"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: out of memory") and shown in err
            assert all(key in err for key in ("grid_points", "num_users", "realizations")) and not out.exists()
            assert all(key in err for key in ("num_segments", "segment_sweep", "user_sweep"))
            assert not err.rstrip("\n").endswith(": ")

    @pytest.mark.parametrize("key, value, reason", [
        ("num_users", "1.5", "invalid literal for int() with base 10: '1.5'"),
        ("realizations", "1e3", "invalid literal for int() with base 10: '1e3'"),
        ("carrier_freq_hz", "28GHz", "could not convert string to float: '28GHz'"),
        ("segment_sweep", "2, x", "invalid literal for int() with base 10: 'x'"),
    ], ids=["int", "int-exponent", "float", "tuple"])
    def test_unparsable_value_reports_line_and_key(self, tmp_path, capsys, key, value, reason):
        cfg = self.write_config(tmp_path, f"schemes = bound-exact\n# a comment\n{key} = {value}\n")
        out = tmp_path / "x.csv"
        assert cli_main(["segment-sweep", "--config", cfg, "--output", str(out), "--quiet"]) == 2
        assert f"error: config line 3: {key} = {value}: {reason}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("height_m", "nan"), ("noise_dbm", "inf")])
    def test_non_finite_value_reports_error(self, tmp_path, capsys, key, value):
        text = f"num_users = 1\nnum_segments = 2\ngrid_points = 20\nschemes = hssa-1\n{key} = {value}\n"
        cfg = self.write_config(tmp_path, text)
        out = tmp_path / "trace.csv"
        assert cli_main(["single-run", "--config", cfg, "--output", str(out), "--quiet"]) == 2
        assert f"{key} must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("carrier_freq_hz", "0"),  # zero division in the free-space wavelength
        ("carrier_freq_hz", "1e-300"),  # overflow in the free-space wavelength
        ("carrier_freq_hz", "1e-160"),  # overflow in the free-space gain
        ("carrier_freq_hz", "1e300"),  # overflow in the free-space gain
        ("tx_power_dbm", "4000"),  # overflow in dBm to watts
        ("noise_dbm", "4000"),
        ("tx_power_dbm", "-4000"),  # underflow to 0 W
        ("height_m", "1e200"),  # overflow in the squared distance
        ("region_x_m", "1e300"),
        ("region_y_m", "1e300"),  # NaN gains from the phase of an infinite distance
        ("segment_length_m", "1e300"),
        ("n_eff", "1e306"),  # overflow in the guided phase over a segment
        ("height_m", "1e-170"),  # a squared axis distance of 0
    ])
    def test_out_of_range_value_reports_error(self, tmp_path, capsys, key, value):
        text = f"num_users = 1\nnum_segments = 2\ngrid_points = 20\nschemes = hssa-1\n{key} = {value}\n"
        cfg = self.write_config(tmp_path, text)
        out = tmp_path / "trace.csv"
        assert cli_main(["single-run", "--config", cfg, "--output", str(out), "--quiet"]) == 2
        assert f"{key} = {float(value):.6g} is out of range" in capsys.readouterr().err
        assert not out.exists()

    def test_infeasible_full_activation_reports_error(self, tmp_path, capsys):
        # Adjacent 1 m segments cannot hold antennas 2.5 m apart.
        text = "num_users = 1\nsegment_sweep = 1, 2\ngrid_points = 20\nmin_spacing_m = 2.5\nschemes = full-sa-1\n"
        cfg = self.write_config(tmp_path, text)
        out = tmp_path / "x.csv"
        assert cli_main(["segment-sweep", "--config", cfg, "--output", str(out), "--quiet"]) == 2
        assert "no grid placement of all 2 segments" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("noise_dbm", [150, 400])
    def test_zero_rate_sweep_reports_error(self, tmp_path, capsys, noise_dbm):
        # log2(1 + snr) rounds to 0 at these noise floors.
        text = (f"num_users = 2\nsegment_sweep = 20\ngrid_points = 20\nrealizations = 2\nnoise_dbm = {noise_dbm}\n"
                "schemes = hssa-1, hssa-2, full-sa-2, bound-exact\n")
        cfg = self.write_config(tmp_path, text)
        out = tmp_path / "x.csv"
        assert cli_main(["segment-sweep", "--config", cfg, "--output", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "hssa-1 rate at M = 20 is not positive" in err and "noise_dbm" in err and "tx_power_dbm" in err
        assert not out.exists()

    def test_zero_rate_single_run_reports_error(self, tmp_path, capsys):
        text = "num_users = 2\nnum_segments = 3\ngrid_points = 20\nnoise_dbm = 150\nschemes = hssa-2\n"
        cfg = self.write_config(tmp_path, text)
        out = tmp_path / "trace.csv"
        assert cli_main(["single-run", "--config", cfg, "--output", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "hssa-2 rate at the single run is not positive" in err and "noise_dbm" in err
        assert not out.exists()

    @pytest.mark.parametrize("overflow, scheme", [
        *[("power", scheme) for scheme in harness.SCHEMES],
        ("carrier", "hssa-1"),
        ("carrier", "bound-exact"),
        ("axis", "hssa-1"),
        ("axis", "bound-exact"),
    ])
    def test_overflowing_rate_reports_error(self, tmp_path, capsys, overflow, scheme):
        # The SNR overflows to inf. NumPy raises at the first overflow on the
        # way, so nothing warns (a warning is an error under pytest). A single
        # run of a greedy scheme sees the sweep's realization 0 at M = 2.
        keys = {"power": "tx_power_dbm = 3000\nnoise_dbm = -3000\n",
                "carrier": "carrier_freq_hz = 1e-142\nnoise_dbm = -150\n",
                "axis": "height_m = 1e-160\nregion_x_m = 1e-160\nregion_y_m = 1e-160\n"}[overflow]
        text = (f"num_users = 2\nnum_segments = 2\nsegment_sweep = 2\ngrid_points = 20\nrealizations = 1\n"
                f"schemes = {scheme}\n{keys}")
        runs = [("segment-sweep", "M = 2"), ("single-run", "the single run")]
        for command, where in runs if scheme.startswith("hssa-") else runs[:1]:
            out = tmp_path / "x.csv"
            assert cli_main([command, "--config", self.write_config(tmp_path, text), "--output", str(out),
                             "--quiet"]) == 2
            err = capsys.readouterr().err
            assert f"{scheme} rate at {where} is inf" in err
            assert all(key in err for key in ("noise_dbm", "tx_power_dbm", "carrier_freq_hz", "height_m"))
            assert "RuntimeWarning" not in err and "overflow encountered" not in err
            assert not out.exists()

    @pytest.mark.parametrize("key, value", [("ao_tol", "-1e-8"), ("ao_max_iter", "-1")])
    def test_negative_ao_setting_reports_error(self, tmp_path, capsys, key, value):
        text = f"num_users = 1\nnum_segments = 2\ngrid_points = 20\nschemes = hssa-2\n{key} = {value}\n"
        cfg = self.write_config(tmp_path, text)
        out = tmp_path / "trace.csv"
        assert cli_main(["single-run", "--config", cfg, "--output", str(out), "--quiet"]) == 2
        assert f"{key} must be nonnegative" in capsys.readouterr().err
        assert not out.exists()

    def test_unsatisfiable_bound_redraws_report_error(self, tmp_path):
        # Six users all inside a 1 m waveguide over a 20 m region takes ~6e7
        # redraws on average; the cap turns that into an error. A subprocess
        # with a timeout keeps a regression from hanging the suite.
        text = "num_users = 6\nsegment_sweep = 1\nrealizations = 1\nschemes = bound-exact\n"
        cfg = self.write_config(tmp_path, text)
        proc = subprocess.run(
            [sys.executable, "-m", "swanopt.cli", "bound-sweep",
             "--config", cfg, "--output", str(tmp_path / "x.csv"), "--quiet"],
            env=cli_env(), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert "redraws" in proc.stderr


def log_scale():
    """0, or a double of either sign whose magnitude is log-uniform over the finite range."""
    magnitude = st.floats(-323.0, 308.25).map(lambda exponent: 10.0 ** exponent)
    return st.one_of(st.just(0.0), magnitude, magnitude.map(lambda x: -x))


@st.composite
def tiny_configs(draw):
    """Config values of a tiny segment or user sweep of all six schemes; each float key default or log-scale."""
    values = {"grid_points": draw(st.integers(2, 8)), "realizations": 1, "schemes": harness.SCHEMES,
              "ao_max_iter": draw(st.integers(0, 100)), "master_seed": draw(st.integers(0, 2**32 - 1))}
    if draw(st.booleans()):
        values.update(num_users=draw(st.integers(1, 3)),
                      segment_sweep=tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))))
    else:
        values.update(num_segments=draw(st.integers(1, 4)),
                      user_sweep=tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))))
    float_keys = [k for k, parse in harness._PARSERS.items() if parse is float]
    assert float_keys, "no config key parses as float, so no float value would be drawn"
    for key in float_keys:
        if draw(st.integers(0, 2)) == 0:  # a third of the keys, so that some configs run
            values[key] = draw(log_scale())
    return values


def sweep_outcome(values):
    """The CSV text of the sweep a config describes, or None when it raises ValueError."""
    try:
        config = ExperimentConfig(**values)
        result = (run_segment_sweep if config.segment_sweep else run_user_sweep)(config)
    except ValueError:
        return None
    points = config.segment_sweep or config.user_sweep
    assert result.rates.shape == (len(points), len(harness.SCHEMES), 1)
    assert np.isfinite(result.rates).all() and (result.rates > 0).all()
    assert len(rows(result)) == len(points) * len(harness.SCHEMES)
    for r in rows(result):
        assert math.isfinite(r.mean_rate) and r.mean_rate > 0 and r.std_rate == 0.0
    return sweep_csv_text(result)


TINY_VALID = {"grid_points": 5, "realizations": 1, "schemes": harness.SCHEMES, "num_users": 2,
              "segment_sweep": (3, 1), "region_x_m": 2.0, "n_eff": 1e300, "kappa_db_per_m": 1e300}
ONE_USER = {"grid_points": 2, "realizations": 1, "schemes": harness.SCHEMES, "num_segments": 1, "user_sweep": (1,)}


class TestAcceptedConfigsFinish:
    @settings(max_examples=150, deadline=None, derandomize=True)
    # Found by search: a user on the waveguide axis (a squared distance of 0)
    # and a guided phase that overflows to NaN gains.
    @example({**ONE_USER, "height_m": 1e-162, "region_y_m": 1e-162})
    @example({**ONE_USER, "n_eff": 1e306})
    @given(tiny_configs())
    def test_finite_positive_rows_or_value_error(self, values):
        sweep_outcome(values)

    @settings(max_examples=3, deadline=None, derandomize=True)
    @example(TINY_VALID)
    @given(tiny_configs())
    def test_cli_exits_0_or_2(self, values):
        expected = sweep_outcome(values)
        text = "".join(f"{key} = {','.join(map(str, value)) if isinstance(value, tuple) else repr(value)}\n"
                       for key, value in values.items())
        command = "segment-sweep" if "segment_sweep" in values else "user-sweep"
        with tempfile.TemporaryDirectory() as tmp:
            cfg, out = Path(tmp) / "cfg.txt", Path(tmp) / "x.csv"
            cfg.write_text(text)
            proc = subprocess.run([sys.executable, "-m", "swanopt.cli", command, "--config", str(cfg),
                                   "--output", str(out), "--quiet"],
                                  env=cli_env(), capture_output=True, text=True, timeout=60)
            assert proc.returncode == (2 if expected is None else 0), proc.stderr
            if expected is not None:
                assert out.read_text() == expected
