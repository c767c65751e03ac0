"""Benchmark entry point.

One measured run::

    python3 perfbench/run.py --workload feed --seed 1 --seconds 30 --trace 0

runs whole rounds of one workload (see ``workloads.py``) for about
``--seconds`` seconds, checks every result against the independent oracle,
and prints as its last line a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics
(host-normalized; raw values are printed on the lines before), ``--trace 1``
the per-layer metrics of a traced run.

Other modes::

    python3 perfbench/run.py --repeat 10 --seeds 1,2
    python3 perfbench/run.py --self-test

``--repeat`` runs each workload N times in alternating order and prints each
end-to-end metric's median, quartiles and spread against its bound in
``BENCHMARK.json``; it fails when a run is incorrect or has a failed
operation, when a spread exceeds its bound, or when a byte metric differs
between runs of one seed.  ``--self-test`` shows that the
oracle check accepts the engine's answers and rejects altered ones.

Run it from the root of a checkout: the engine is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Engine knobs that would change what is measured; the benchmark pins their
#: effect through explicit settings and refuses to run when any is set.
REFUSED_ENV = ("REPRO_FAULTS", "REPRO_LSM_SCHEDULER", "REPRO_EXECUTION_MODE",
               "REPRO_PLAN_CACHE", "REPRO_COLUMN_CACHE_BYTES", "REPRO_PARALLELISM",
               "REPRO_BATCH_SIZE", "REPRO_TRACE")

WORKLOAD_NAMES = ("feed", "scan-cold", "scan-warm")

#: End-to-end metrics: name -> unit.
E2E_UNITS = {
    "setup_s": "s",
    "ingest_records_per_s": "1/s",
    "write_p50_ms": "ms",
    "write_tail_ms": "ms",
    "queries_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
    "storage_bytes_per_input_byte": "ratio",
    "write_bytes_per_input_byte": "ratio",
    "peak_rss_mb": "MB",
}
BYTE_METRICS = ("storage_bytes_per_input_byte", "write_bytes_per_input_byte")

#: The rounds of a traced run: round 0 runs untraced as the overhead baseline.
TRACED_MIN_ROUNDS = 2


def _fail(message: str, code: int = 2) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def _import_engine() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        _fail(f"no engine sources at {SRC} (run from the root of a checkout)")
    sys.path.insert(0, str(SRC))
    if str(BENCH_DIR) not in sys.path:
        sys.path.insert(0, str(BENCH_DIR))


# -- statistics -------------------------------------------------------------------

def tail(values: Sequence[float]) -> float:
    """The highest percentile with at least ten samples beyond it.

    With fewer than forty samples that percentile would be no tail, and the
    median is reported instead.
    """
    ordered = sorted(values)
    if len(ordered) >= 40:
        return ordered[len(ordered) - 11]
    return statistics.median(ordered)


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def round_metrics(rnd: Any, field: str) -> Dict[str, float]:
    """End-to-end metrics of one round, from normalized (``norm``) or raw times."""
    def seconds(timings):
        return [getattr(timing, field) for timing in timings]

    write_times = seconds(timing for timing, _ in rnd.writes)
    query_times = seconds(timing for _, timing in rnd.queries)
    records_written = sum(count for _, count in rnd.writes)
    classes: Dict[str, List[Any]] = {}
    for label, timing in rnd.queries:
        classes.setdefault(label, []).append(timing)
    return {
        "setup_s": sum(seconds(rnd.setup)),
        "ingest_records_per_s": _rate(records_written, sum(write_times)),
        "write_p50_ms": 1e3 * statistics.median(write_times) if write_times else 0.0,
        "write_tail_ms": 1e3 * tail(write_times) if write_times else 0.0,
        "queries_per_s": _rate(len(query_times), sum(query_times)),
        # Every query class runs equally often, so the median of the pooled
        # samples of an even number of classes falls in the gap between two
        # classes and jumps with the extremes of both; the median of the
        # class medians estimates the same point from the classes' centres.
        "query_p50_ms": 1e3 * statistics.median(
            statistics.median(seconds(timings)) for timings in classes.values())
        if classes else 0.0,
        "query_tail_ms": 1e3 * tail(query_times) if query_times else 0.0,
        "storage_bytes_per_input_byte": rnd.storage_bytes / rnd.live_json_bytes,
        "write_bytes_per_input_byte": rnd.device_bytes_written / rnd.json_bytes_written,
    }


def _median_over(rounds: List[Dict[str, float]], name: str) -> float:
    return statistics.median(values[name] for values in rounds)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- one run ------------------------------------------------------------------------

def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    from hostclock import HostClock
    from layers import METRICS as LAYER_METRICS
    from layers import LayerTracer, resolve_targets
    from workloads import WORKLOADS

    round_fn = WORKLOADS[workload]
    if trace:
        try:
            resolve_targets()
        except LookupError as exc:
            _fail(str(exc))
    clock = HostClock()
    started = time.perf_counter()
    rounds = []
    tracers: List[LayerTracer] = []
    min_rounds = TRACED_MIN_ROUNDS if trace else 1
    while True:
        tracer = LayerTracer() if trace and rounds else None
        rounds.append(round_fn(seed, clock, tracer))
        if tracer is not None:
            tracers.append(tracer)
        elapsed = time.perf_counter() - started
        if len(rounds) >= min_rounds and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            break

    attempted = sum(rnd.attempted for rnd in rounds)
    failed = sum(rnd.failed for rnd in rounds)
    mismatches = [problem for rnd in rounds for problem in rnd.mismatches]
    checks = sum(rnd.checks for rnd in rounds)
    for rnd in rounds:
        for error in rnd.errors[:5]:
            print(f"error: {error}")
    for problem in mismatches[:10]:
        print(f"MISMATCH: {problem}")
    print(f"workload={workload} seed={seed} rounds={len(rounds)} attempted={attempted} "
          f"failed={failed} checks={checks} mismatches={len(mismatches)} "
          f"host_speed={clock.speed():.3f} wall_s={time.perf_counter() - started:.1f}")
    correct = not mismatches

    if trace:
        untraced = sum(timing.norm for timing in rounds[0].measured)
        traced = statistics.median(sum(timing.norm for timing in rnd.measured)
                                   for rnd in rounds[1:])
        overhead = traced / untraced - 1.0
        per_tracer = [tracer.metrics(overhead) for tracer in tracers]
        metrics = {name: {"value": statistics.median(values[name] for values in per_tracer),
                          "unit": unit}
                   for name, (unit, _) in LAYER_METRICS.items()}
        for tracer in tracers:
            if tracer.self_busy_total() > tracer.process_cpu_s + 1e-3:
                correct = False
                print(f"TRACE CHECK FAILED: self busy {tracer.self_busy_total():.4f} s > "
                      f"process CPU {tracer.process_cpu_s:.4f} s")
        print(f"trace: overhead={overhead:+.3f} self_busy={tracers[-1].self_busy_total():.3f} s "
              f"process_cpu={tracers[-1].process_cpu_s:.3f} s")
        for name, entry in metrics.items():
            print(f"  {name:40s} {entry['value']:.6g} {entry['unit']}")
    else:
        normalized = [round_metrics(rnd, "norm") for rnd in rounds]
        raw = [round_metrics(rnd, "raw") for rnd in rounds]
        metrics = {}
        for name, unit in E2E_UNITS.items():
            if name == "peak_rss_mb":
                value = raw_value = peak_rss_mb()
            else:
                value, raw_value = _median_over(normalized, name), _median_over(raw, name)
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:30s} {value:12.4f} {unit:6s} (raw {raw_value:.4f})")
        _print_query_classes(rounds)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def _print_query_classes(rounds: Sequence[Any]) -> None:
    classes: Dict[str, List[Tuple[float, float]]] = {}
    for rnd in rounds:
        for label, timing in rnd.queries:
            classes.setdefault(label, []).append((timing.norm, timing.raw))
    for label, samples in classes.items():
        norm = statistics.median(sample[0] for sample in samples)
        raw = statistics.median(sample[1] for sample in samples)
        print(f"  query {label:22s} p50 {1e3 * norm:9.2f} ms (raw {1e3 * raw:.2f}) n={len(samples)}")


# -- repeat mode --------------------------------------------------------------------

def _bounds() -> Dict[str, float]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["bound"] for entry in spec["end_to_end"]}


def _one_subprocess(workload: str, seed: int, seconds: int,
                    trace: int) -> Tuple[Dict[str, Any], Dict[str, float], float]:
    """One run in a fresh process: its result, its raw times and its host speed."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    completed = subprocess.run(command, cwd=str(ROOT), capture_output=True, text=True,
                               timeout=600, check=False)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed ({completed.returncode}): "
                           f"{completed.stderr[-2000:]}")
    raw: Dict[str, float] = {}
    speed = 0.0
    for line in lines[:-1]:
        fields = line.split()
        if fields and fields[0] in E2E_UNITS and fields[-2] == "(raw":
            raw[fields[0]] = float(fields[-1].rstrip(")"))
        elif fields and fields[0].startswith("workload="):
            speed = float(next(field for field in fields
                               if field.startswith("host_speed=")).split("=")[1])
    return json.loads(lines[-1]), raw, speed


def _spread(values: Sequence[float]) -> Tuple[float, float, float, float]:
    """Median, first and third quartile, and the quartile distance over the median."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def repeat(count: int, seeds: Sequence[int], seconds: int) -> int:
    bounds = _bounds()
    results: Dict[str, List[Tuple[int, Dict[str, Any], Dict[str, float]]]] = {
        name: [] for name in WORKLOAD_NAMES}
    for index in range(count):
        order = list(WORKLOAD_NAMES) if index % 2 == 0 else list(reversed(WORKLOAD_NAMES))
        seed = seeds[index % len(seeds)]
        for workload in order:
            result, raw, speed = _one_subprocess(workload, seed, seconds, 0)
            results[workload].append((seed, result, raw))
            print(f"run {index + 1}/{count} {workload} seed={seed} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} host_speed={speed:.3f}",
                  flush=True)
    status = 0
    for workload, runs in results.items():
        print(f"\n{workload}: {len(runs)} runs")
        if not all(result["correct"] for _, result, _ in runs):
            print("  INCORRECT results in some runs")
            status = 1
        if any(result["failed"] for _, result, _ in runs):
            print("  failed operations in some runs")
            status = 1
        for name, bound in bounds.items():
            values = [result["metrics"][name]["value"] for _, result, _ in runs]
            median, q1, q3, spread = _spread(values)
            raw_spread = _spread([raw.get(name, 0.0) for _, _, raw in runs])[3]
            verdict = "steady" if spread <= bound / 3 else "ok" if spread <= bound else "WIDE"
            if verdict == "WIDE":
                status = 1
            print(f"  {name:30s} median {median:11.4f}  q1 {q1:11.4f}  q3 {q3:11.4f}  "
                  f"spread {spread:6.3f} (raw {raw_spread:6.3f})  bound {bound:5.3f}  {verdict}")
            print("      " + " ".join(f"{value:.4g}" for value in values))
        for name in BYTE_METRICS:
            by_seed: Dict[int, set] = {}
            for seed, result, _ in runs:
                by_seed.setdefault(seed, set()).add(result["metrics"][name]["value"])
            differing = {seed: sorted(values) for seed, values in by_seed.items() if len(values) > 1}
            if differing:
                print(f"  {name} differs between runs of one seed: {differing}")
                status = 1
    return status


# -- self-test ----------------------------------------------------------------------

def self_test() -> int:
    """The oracle check passes on the engine's answers and fails on altered ones,
    and on top-k answers that leave out the largest group."""
    import oracle
    from workloads import QUERIES, STORAGE, LSM, _generate
    from repro import Dataset, StorageEnvironment, StorageFormat

    sizes = {"twitter": 300, "wos": 200, "sensors": 100}
    failures = 0
    for kind, count in sizes.items():
        records = _generate(kind, count, 1)
        dataset = Dataset.create(kind, StorageFormat.INFERRED,
                                 environment=StorageEnvironment(STORAGE), partitions=2, lsm=LSM)
        for record in records:
            dataset.insert(record)
        dataset.flush_all()
        for label, answer_fn in oracle.ANSWERS[kind].items():
            rows = dataset.query(QUERIES[kind][label]).rows
            answer = answer_fn(records)
            accepted = oracle.check(rows, answer)
            rejected = oracle.check(rows, oracle.altered(answer))
            ok = accepted is None and rejected is not None
            line = (f"{kind}.{label}: accepts engine answer: {accepted is None}; "
                    f"rejects altered answer: {rejected is not None} ({rejected})")
            if answer.kind == "top":
                dropped = oracle.without_top_group(rows, answer)
                if dropped is not None:
                    missing_top = oracle.check(dropped, answer)
                    ok = ok and missing_top is not None
                    line += f"; rejects rows without the top group: {missing_top is not None}"
            failures += not ok
            print(line)
    # The tie case: true values 10, 9, ..., 2, 1, 1; rows that leave out the
    # group worth 10 and return both groups worth 1 have every value right,
    # sorted, and the true 10th value last.
    tied = oracle.Answer("top", {f"g{value}": value for value in range(1, 11)} | {"g0": 1},
                         key="k", agg="v")
    rows = [{"k": f"g{value}", "v": value} for value in range(10, 0, -1)]
    dropped = oracle.without_top_group(rows, tied)
    tie_ok = oracle.check(rows, tied) is None and dropped is not None \
        and oracle.check(dropped, tied) is not None
    failures += not tie_ok
    print(f"tied top-k: rejects rows without the top group: {tie_ok}")
    print("self-test " + ("passed" if failures == 0 else f"FAILED ({failures})"))
    return 0 if failures == 0 else 1


# -- main -----------------------------------------------------------------------------

def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0,
                        help="run each workload N times and report steadiness")
    parser.add_argument("--seeds", default="1,2")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    refused = [name for name in REFUSED_ENV if os.environ.get(name)]
    if refused:
        _fail(f"refusing to run with {', '.join(refused)} set")
    _import_engine()
    if args.self_test:
        return self_test()
    if args.repeat:
        return repeat(args.repeat, [int(seed) for seed in args.seeds.split(",")], args.seconds)
    if args.workload is None:
        parser.error("--workload is required")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
