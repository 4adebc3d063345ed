"""Benchmark of swanopt's Monte Carlo sweeps through the CLI path.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload desk-sweep --seed 7 --seconds 40 --trace 0

Each workload is a sweep config under perfbench/configs/. A run
1. runs `swanopt.cli.main` in-process on that config, untraced, repeating
   the sweep at seeds derived from `--seed` while another one fits in
   `--seconds`, and reports the median wall time as `sweep_s` and the
   process's peak RSS as `peak_rss_mb`;
2. between the sweeps, starts fresh interpreters that import swanopt, parse
   the config and build the layouts, and reports their median time as
   `setup_s`;
3. with `--trace 1`, runs one more sweep with span wrappers installed on
   swanopt's public functions and reports the per-layer metrics instead;
4. checks every scheme result and CSV row of every sweep (see checks.py).

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`. BLAS and OpenMP are pinned to one thread.
"""

import os

PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
for _var in PINNED_THREADS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_build" / "perfbench"

# workload name -> swanopt CLI subcommand; the config is perfbench/configs/<name>.cfg
WORKLOADS = {
    "desk-sweep": "segment-sweep",
    "switch-only": "segment-sweep",
    "bound-sweep": "bound-sweep",
}
SETUP_SAMPLES = 9
REP_SEED_STRIDE = 1_000_003

# What a fresh CLI process does before its sweep starts; prints the monotonic
# clock (shared by all processes) when done.
_SETUP_CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1])
from swanopt.harness import ExperimentConfig
config = ExperimentConfig.from_file(sys.argv[2])
config.system_params()
for m in config.segment_sweep:
    config.layout_for(m)
print(time.monotonic())
"""


def import_swanopt():
    """Import swanopt from this checkout's src/, never from an installed copy."""
    if not (SRC / "swanopt" / "__init__.py").is_file():
        raise SystemExit(f"error: no swanopt sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import swanopt

    if Path(swanopt.__file__).resolve().parent != SRC / "swanopt":
        raise SystemExit(f"error: imported swanopt from {swanopt.__file__}, not from {SRC}")
    return swanopt


def config_path(workload: str) -> Path:
    return BENCH_DIR / "configs" / f"{workload}.cfg"


def reference_path(workload: str) -> Path:
    return BENCH_DIR / "reference" / f"{workload}.csv"


def measure_setup(cfg: Path) -> float:
    """Seconds from spawning a fresh interpreter to config parsed and layouts built."""
    start = time.monotonic()
    done = subprocess.run([sys.executable, "-c", _SETUP_CHILD, str(SRC), str(cfg)],
                          check=True, capture_output=True, text=True, timeout=60)
    return float(done.stdout) - start


def cli_sweep(argv, config, reference, checked, tracer=None) -> float:
    """One sweep through `swanopt.cli.main`; checks its outputs and returns its wall seconds."""
    import checks
    import spans
    from swanopt import cli

    recorder = checks.Recorder()
    patches = spans.Patches()
    try:
        checks.install(recorder, patches)
        if tracer is not None:
            spans.install(tracer, patches)
        start = time.perf_counter()
        code = spans.traced_call(tracer, "cli.main", cli.main, argv) if tracer is not None else cli.main(argv)
        elapsed = time.perf_counter() - start
    finally:
        patches.restore()
    if code != 0:
        raise RuntimeError(f"swanopt {' '.join(argv)} exited with {code}")
    with open(config.output, encoding="utf-8") as handle:
        csv_text = handle.read()
    checked.add(checks.check_sweep(recorder, csv_text, config, reference))
    return elapsed


def environment(workload: str, seed: int, config, repetitions: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "realizations_per_sweep": config.realizations,
        "sweep_repetitions": repetitions,
        "rep_seed_stride": REP_SEED_STRIDE,
        "segment_sweep_points": len(config.segment_sweep),
        "schemes": list(config.schemes),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in PINNED_THREADS},
        "git_commit": git_commit(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree; None otherwise."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run(workload: str, seed: int, seconds: float, trace: bool, cfg: Path | None = None,
        setup_samples: int = SETUP_SAMPLES) -> dict:
    """Run one workload and return its report.

    Sweep repetition i uses master seed `seed + i * REP_SEED_STRIDE`, so the
    repetitions of one run cover distinct realizations and their median
    varies less with the seed than one sweep's time does. Repetition 0 (and
    the traced sweep) uses `seed` itself; at the config's own master_seed
    its CSV is checked against the workload's reference CSV. A `cfg` in
    place of the workload's config (the smoke test's tiny sweeps) has no
    reference.
    """
    import checks
    import spans
    from swanopt.harness import ExperimentConfig, apply_overrides

    reference_csv = None
    if cfg is None:
        cfg = config_path(workload)
        if seed == ExperimentConfig.from_file(cfg).master_seed:
            reference_csv = reference_path(workload).read_text(encoding="utf-8")
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    csv_path = WORK_DIR / f"{workload}-seed{seed}.csv"
    base = ExperimentConfig.from_file(cfg)
    checked = checks.Checked()

    def sweep(rep_seed, tracer=None):
        config = apply_overrides(base, seed=rep_seed, output=str(csv_path))
        argv = [WORKLOADS[workload], "--config", str(cfg), "--seed", str(rep_seed),
                "--output", str(csv_path), "--quiet"]
        return cli_sweep(argv, config, reference_csv if rep_seed == seed else None, checked, tracer)

    # Setup samples are interleaved with the sweeps so that both see the
    # same spread of machine load over the run.
    setup_s, sweeps = [], []
    begin = time.perf_counter()
    while True:
        if len(setup_s) < setup_samples:
            setup_s.append(measure_setup(cfg))
        sweeps.append(sweep(seed + len(sweeps) * REP_SEED_STRIDE))
        if len(sweeps) == 1:
            csv_bytes = csv_path.read_bytes()
        if time.perf_counter() - begin + statistics.median(sweeps) > seconds:
            break
    while len(setup_s) < setup_samples:
        setup_s.append(measure_setup(cfg))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {"setup_s": statistics.median(setup_s), "sweep_s": statistics.median(sweeps),
               "peak_rss_mb": peak_rss_mb}
    samples = {"setup_s": setup_s, "sweep_s": sweeps}

    if trace:
        tracer = spans.Tracer()
        traced_s = sweep(seed, tracer)
        metrics = spans.layer_metrics(tracer)
        meta = json.loads(Path(f"{csv_path}.meta.json").read_text(encoding="utf-8"))
        metrics["harness.redraws"] = sum(meta["resample_counts"].values())
        metrics["trace.overhead_s"] = traced_s - sweeps[0]
        tracer.save(WORK_DIR / f"{workload}-seed{seed}-spans.npz")
        samples["traced_sweep_s"] = [traced_s]
    metrics["fail_frac"] = checked.failed / checked.attempted

    ref_sha = hashlib.sha256(reference_csv.encode("utf-8")).hexdigest() if reference_csv else None
    sha = hashlib.sha256(csv_bytes).hexdigest()
    return {
        "env": environment(workload, seed, base, len(sweeps)),
        "checked": checked,
        "csv_sha256": sha,
        "csv_matches_reference": None if ref_sha is None else sha == ref_sha,
        "samples": samples,
        "metrics": metrics,
    }


def selected_metrics(report: dict, trace: bool) -> dict:
    """The metrics BENCHMARK.json lists for this mode, as {name: {value, unit}}."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: {"value": report["metrics"][m["name"]], "unit": m["unit"]} for m in listed}


def print_report(report: dict, trace: bool) -> None:
    """Print the report for people, then the result object as the last line."""
    checked = report["checked"]
    metrics = selected_metrics(report, trace)
    print("env " + json.dumps(report["env"], default=str))
    print(f"checks: {checked.attempted} checked results, {checked.failed} failed")
    for problem in checked.problems:
        print(f"  failed: {problem}")
    print(f"csv sha256 {report['csv_sha256']} matches reference: {report['csv_matches_reference']}")
    for name, values in report["samples"].items():
        print(f"samples {name} (n={len(values)}): " + " ".join(f"{v:.4f}" for v in values))
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps({
        "correct": checked.failed == 0,
        "attempted": checked.attempted,
        "failed": checked.failed,
        "metrics": metrics,
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="nonnegative master seed")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    import_swanopt()

    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    checked = report["checked"]
    record = {k: v for k, v in report.items() if k != "checked"}
    record.update(attempted=checked.attempted, failed=checked.failed, problems=checked.problems)
    out = WORK_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2, default=str) + "\n", encoding="utf-8")
    print_report(report, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
