"""Smoke test of the benchmark at tiny size.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_smoke.py
"""

import dataclasses
import json

import pytest

import run

run.import_swanopt()

import swanopt.harness  # noqa: E402

TINY = {
    "segment-sweep": (
        "num_users = 2\nsegment_sweep = 8, 20\ngrid_points = 40\nrealizations = 2\nmaster_seed = 3\n"
        "schemes = hssa-1, hssa-2, full-sa-1, full-sa-2\n"
    ),
    "switch-only": (
        "num_users = 2\nsegment_sweep = 8, 20\ngrid_points = 100\nrealizations = 2\nmaster_seed = 3\n"
        "schemes = hssa-1, full-sa-1\n"
    ),
    "bound-sweep": (
        "num_users = 1\nsegment_sweep = 1, 8, 20, 40\nrealizations = 5\nmaster_seed = 1\n"
        "schemes = bound-exact, bound-integral\n"
    ),
}
# The tiny segment sweeps cover less than the user region, which the harness warns about.
pytestmark = pytest.mark.filterwarnings("ignore:waveguide coverage:RuntimeWarning")

WORKLOAD_OF = {"segment-sweep": "desk-sweep", "switch-only": "switch-only", "bound-sweep": "bound-sweep"}


def tiny_run(tmp_path, kind, trace, seed=3):
    cfg = tmp_path / f"{kind}.cfg"
    cfg.write_text(TINY[kind], encoding="utf-8")
    return run.run(WORKLOAD_OF[kind], seed, 0, trace, cfg=cfg, setup_samples=1)


def deterministic_counts(metrics):
    """The layer metrics that must repeat exactly at one seed: counts, not times."""
    return {k: v for k, v in metrics.items()
            if k.endswith((".calls", ".sweeps", ".cap_hits", ".points", ".bytes_computed", "_per_level",
                           "degenerate_levels", "redraws"))}


def spec():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [False, True])
def test_every_benchmark_metric_is_printed_with_its_unit(tmp_path, capsys, trace):
    run.print_report(tiny_run(tmp_path, "segment-sweep", trace), trace)
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    listed = spec()["per_layer" if trace else "end_to_end"]
    assert set(last["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        printed = last["metrics"][m["name"]]
        assert printed["unit"] == m["unit"] and printed["unit"]
        assert isinstance(printed["value"], (int, float))


def test_a_corrupted_scheme_result_counts_in_fail_frac(tmp_path, monkeypatch):
    honest = swanopt.harness.greedy_hssa_type2
    calls = []

    def corrupting(*args, **kwargs):
        trace = honest(*args, **kwargs)
        calls.append(trace)
        if len(calls) > 1:
            return trace
        best = trace.best
        levels = tuple(dataclasses.replace(lvl, rate=lvl.rate * (1 + 1e-6)) if lvl is best else lvl
                       for lvl in trace.levels)
        return dataclasses.replace(trace, levels=levels)

    monkeypatch.setattr(swanopt.harness, "greedy_hssa_type2", corrupting)
    report = tiny_run(tmp_path, "segment-sweep", trace=False)
    checked = report["checked"]
    assert checked.failed == 1
    assert report["metrics"]["fail_frac"] == 1 / checked.attempted
    assert checked.problems == ["hssa-2 M=8 realization 0"]


def test_traced_counts_repeat_at_one_seed(tmp_path):
    first = deterministic_counts(tiny_run(tmp_path, "segment-sweep", trace=True)["metrics"])
    second = deterministic_counts(tiny_run(tmp_path, "segment-sweep", trace=True)["metrics"])
    assert first == second
    assert first["optimize.phase_alternating_opt.calls"] > 0
    assert first["channel.segment_gains.points"] > 0


def test_traced_runs_isolate_their_layers(tmp_path):
    switch = tiny_run(tmp_path, "switch-only", trace=True)["metrics"]
    assert switch["optimize.phase_alternating_opt.calls"] == 0
    assert switch["optimize.greedy_hssa_type1.calls"] > 0

    bound = tiny_run(tmp_path, "bound-sweep", trace=True)["metrics"]
    busy = {k: v for k, v in bound.items() if k.startswith(("optimize.", "channel.")) and k.endswith(".calls") and v}
    assert busy == {}
    assert bound["bound.f_exact.calls"] > 0 and bound["harness.redraws"] > 0
