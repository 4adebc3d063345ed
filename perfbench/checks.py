"""Output checks behind the benchmark's `correct`, `attempted` and `failed`.

A checked result is one scheme result per realization plus one CSV row per
(sweep point, scheme). The recorder keeps every scheme result the harness
receives while the sweep runs; `check_sweep` examines them after the sweep
timer has stopped.
"""

import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from swanopt.channel import placement_sum_rate

RATE_RTOL = 1e-9

# Scheme functions as the harness calls them, with the CSV scheme label and
# how to read the reported rate off their result.
SCHEME_FUNCTIONS = {
    "greedy_hssa_type1": lambda args, kwargs: "hssa-1",
    "greedy_hssa_type2": lambda args, kwargs: "hssa-2",
    "full_sa_baseline": lambda args, kwargs: "full-sa-" + (args[4] if len(args) > 4 else kwargs.get("variant", "type1"))[-1],
    "exact_amplitude_bound": lambda args, kwargs: "bound-exact",
    "sum_rate_bound": lambda args, kwargs: "bound-integral",
}


@dataclass
class Recorder:
    """Every scheme result of one sweep, grouped by (scheme, segment count)."""

    rates: dict = field(default_factory=dict)  # (scheme, M) -> array of rates in realization order
    solutions: dict = field(default_factory=dict)  # (scheme, M) -> [(users, layout, params, result)] of optimizers

    def add(self, scheme, users, layout, params, result) -> None:
        key = (scheme, layout.num_segments)
        if scheme.startswith("bound-"):
            rate = result
        else:
            rate = result.best_rate if scheme.startswith("hssa-") else result[1]
            self.solutions.setdefault(key, []).append((users, layout, params, result))
        self.rates.setdefault(key, array("d")).append(rate)


def install(recorder: Recorder, patches) -> None:
    """Record each scheme result on its way from the optimizer or bound into the harness."""
    for attr, label in SCHEME_FUNCTIONS.items():
        def make(fn, label=label):
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                recorder.add(label(args, kwargs), args[0], args[1], args[2], result)
                return result
            return wrapper
        patches.replace("swanopt.harness", attr, make)


@dataclass
class Checked:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)

    def add(self, other: "Checked") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems[: max(0, 20 - len(self.problems))])


def _close(a: float, b: float) -> bool:
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= RATE_RTOL * max(abs(a), abs(b))


def _recomputes(users, layout, params, placement, rate) -> bool:
    try:
        placement.validate(layout, params)
    except ValueError:
        return False
    return _close(placement_sum_rate(users, placement, layout, params), rate)


def _solution_ok(scheme, users, layout, params, result) -> bool:
    if scheme.startswith("hssa-"):
        best, full = result.best, result.levels[-1]
        return (
            math.isfinite(best.rate) and best.rate > 0
            and _recomputes(users, layout, params, best.placement, best.rate)
            and _recomputes(users, layout, params, full.placement, full.rate)
            and best.rate >= full.rate
        )
    placement, rate = result
    return math.isfinite(rate) and rate > 0 and _recomputes(users, layout, params, placement, rate)


def parse_csv(text: str) -> dict:
    """CSV rows keyed by (scheme, M): (mean, std, n_real, seed)."""
    rows = {}
    for line in text.splitlines()[1:]:
        _, value, scheme, mean, std, n_real, seed = line.split(",")
        rows[(scheme, int(value))] = (float(mean), float(std), int(n_real), int(seed))
    return rows


def check_sweep(recorder: Recorder, csv_text: str, config, reference_csv: str | None) -> Checked:
    """Check one sweep's scheme results and CSV rows.

    Each expected scheme result is checked once: a finite positive rate and,
    for the optimizers, valid placements whose recomputed sum-rate matches
    the reported one and a greedy best level at least full activation. Each
    expected CSV row is checked once: its mean and std are those of the
    recorded results, and, when `reference_csv` is given, those of the
    reference within RATE_RTOL.
    """
    out = Checked()
    expected = [(s, m) for m in config.segment_sweep for s in config.schemes]
    for key in expected:
        rates = np.frombuffer(recorder.rates.get(key, array("d")), dtype=float)
        solutions = recorder.solutions.get(key, [])
        for r in range(config.realizations):
            ok = r < rates.size and math.isfinite(rates[r]) and rates[r] > 0
            if ok and not key[0].startswith("bound-"):
                ok = r < len(solutions) and _solution_ok(key[0], *solutions[r])
            out.check(ok, f"{key[0]} M={key[1]} realization {r}")

    rows = parse_csv(csv_text)
    reference = parse_csv(reference_csv) if reference_csv is not None else None
    for key in expected:
        rates = np.frombuffer(recorder.rates.get(key, array("d")), dtype=float)
        row = rows.get(key)
        ok = row is not None and rates.size == config.realizations
        if ok:
            mean, std, n_real, seed = row
            want_std = float(np.std(rates, ddof=1)) if rates.size > 1 else 0.0
            ok = (
                _close(mean, float(np.mean(rates)))
                and (std == want_std or _close(std, want_std))
                and n_real == config.realizations
                and seed == config.master_seed
            )
            if ok and reference is not None:
                ref = reference.get(key)
                ok = ref is not None and _close(mean, ref[0]) and (std == ref[1] or _close(std, ref[1]))
        out.check(ok, f"CSV row {key[0]} M={key[1]}")
    if set(rows) != set(expected):
        out.check(False, f"CSV has unexpected rows: {sorted(set(rows) - set(expected))}")
    return out
