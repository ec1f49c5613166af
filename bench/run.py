#!/usr/bin/env python3
"""qspectra benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
``src/`` next to this directory, never from an installed copy.  The
workloads are defined, with the reason each was chosen, in
``bench/workloads.py``.

``--trace 0`` repeats whole rounds of the workload until ``--seconds``
have passed and reports the end-to-end metrics.  ``--trace 1`` runs a
fixed number of rounds (``--seconds`` divided by twice the workload's
nominal round time), each once untraced and once traced, and reports the
per-layer metrics of the traced rounds, the per-module self times and
the tracing overhead (traced over untraced operation time); the spans go
to ``.bench_work/traces/``.  Either way set-up
runs three times and ``setup_s`` is the median, the outputs of every
operation are checked outside the timed region, a detail record (run
metadata, failures, tail percentile, raw wall-clock timings) is written
to ``.bench_work/results/``, and the last line of standard output is the
JSON result.

The end-to-end timings are process CPU times at a reference host speed:
a host-speed probe (``bench/hostprobe.py``) runs between operations, and
each CPU time is scaled by the reference probe time over the probe times
measured around it, which cancels the shared host's drift.  Raw
wall-clock timings are in the detail record.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter

import hostprobe

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3
MIN_BEYOND = 10
THREADS_ENV_AT_START = os.environ.get("QSPECTRA_THREADS")
WORKLOAD_NAMES = ("estimate-noisy", "sweep-fitted", "synth-artifacts", "forward-batch")


class SourceMissing(RuntimeError):
    pass


def _load():
    """Import the package from this checkout's src/ and the benchmark modules."""
    if not os.path.isfile(os.path.join(SRC, "qspectra", "__init__.py")):
        raise SourceMissing(f"no qspectra sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    if BENCH_DIR not in sys.path:
        sys.path.insert(0, BENCH_DIR)
    import qspectra

    if not os.path.abspath(qspectra.__file__).startswith(SRC + os.sep):
        raise SourceMissing(f"qspectra imported from {qspectra.__file__}, not {SRC}")
    import tracer
    import workloads

    return workloads, tracer



# -- measurement ------------------------------------------------------------


class Record:
    def __init__(self) -> None:
        # wall-clock latency, start and process CPU time of each operation
        self.latencies: list[float] = []
        self.starts: list[float] = []
        self.cpu_times: list[float] = []
        self.labels: list[str] = []
        self.failures: Counter = Counter()
        self.wrong: list[str] = []
        self.tally: Counter = Counter()
        self.rounds = 0
        self.wall_s = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def run_round(workload, state, record: Record, tracer=None, host=None) -> None:
    """Run round number record.rounds once, checking each operation's
    outputs outside its timed interval.  With `host`, the host-speed probe
    runs between operations whenever it is due."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for op in workload.round_ops(state, record.rounds):
            if host is not None:
                host.sample_if_due()
            sink.seek(0)
            sink.truncate()
            failure = None
            t0 = time.perf_counter()
            c0 = time.process_time()
            record.starts.append(t0)
            try:
                if tracer is None:
                    result = op.run()
                else:
                    with tracer.root(record.attempted):
                        result = op.run()
            except Exception as exc:  # an operation that raises is a failure
                failure = f"{type(exc).__name__}: {exc}"
            record.cpu_times.append(time.process_time() - c0)
            record.latencies.append(time.perf_counter() - t0)
            record.labels.append(op.label)
            if failure is None:
                if tracer is not None:
                    tracer.enabled = False
                try:
                    outcome = op.check(result)
                except Exception as exc:  # output the check cannot parse
                    record.wrong.append(f"{op.label}: check raised {exc!r}")
                    continue
                finally:
                    if tracer is not None:
                        tracer.enabled = True
                failure = outcome.failed
                record.wrong += outcome.wrong
                record.tally.update(outcome.tally)
            if failure:
                said = sink.getvalue().strip().splitlines()
                reason = failure + (f" ({said[-1]})" if said else "")
                record.failures[f"{op.label}: {reason}"] += 1
    record.rounds += 1


def measure(workload, state, seconds: float, host) -> Record:
    """Repeat whole rounds until `seconds` have passed, probing the host
    speed between operations and after the last one."""
    record = Record()
    start = time.perf_counter()
    while True:
        run_round(workload, state, record, host=host)
        record.wall_s = time.perf_counter() - start
        if record.wall_s >= seconds:
            host.sample(hostprobe.NEAREST // 2)
            return record


def measure_traced(workload, state, tracer, rounds: int) -> tuple[Record, Record]:
    """Run each of `rounds` rounds untraced and then traced, so both sides
    of the tracing-overhead ratio see the same inputs at nearly the same
    time; returns (untraced, traced)."""
    base, traced = Record(), Record()
    start = time.perf_counter()
    for _ in range(rounds):
        run_round(workload, state, base)
        tracer.install()
        try:
            run_round(workload, state, traced, tracer)
        finally:
            tracer.uninstall()
    traced.wall_s = time.perf_counter() - start
    return base, traced


def _percentile(sorted_values: list[float], p: float) -> float:
    """Linear-interpolated percentile of an ascending list."""
    position = (len(sorted_values) - 1) * p / 100.0
    lo = int(position)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (position - lo)


def tail_latency(latencies: list[float], percentile: float) -> tuple[float, int]:
    """Value of the percentile and the number of samples above it."""
    ordered = sorted(latencies)
    value = _percentile(ordered, percentile)
    return value, sum(1 for x in ordered if x > value)


def _fraction(tally: Counter, ok: str, total: str) -> float:
    # 1.0 when the workload makes no such output: nothing was wrong
    return tally[ok] / tally[total] if tally[total] else 1.0


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end_metrics(record: Record, setup_s: float, percentile: float,
                       host) -> tuple[dict, dict]:
    """Timing metrics are process CPU times at the reference host speed (see
    hostprobe.py); their raw wall-clock values go to the detail record."""
    scaled = [host.scale(cpu, start, latency) for cpu, start, latency
              in zip(record.cpu_times, record.starts, record.latencies)]
    ordered = sorted(scaled)
    tail, beyond = tail_latency(ordered, percentile)
    raw = sorted(record.latencies)
    tally = record.tally
    metrics = {
        "setup_s": _metric(setup_s, "s"),
        "ops_per_s": _metric(record.attempted / sum(scaled), "1/s"),
        "latency_p50_ms": _metric(1e3 * _percentile(ordered, 50.0), "ms"),
        "latency_tail_ms": _metric(1e3 * tail, "ms"),
        "success_rate": _metric(1.0 - record.failed / record.attempted, "ratio"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                               "MB"),
        "classified_frac": _metric(_fraction(tally, "class_ok", "class_total"), "ratio"),
        "g_within_3sigma_frac": _metric(_fraction(tally, "g_ok", "g_total"), "ratio"),
        "contract_ok_frac": _metric(_fraction(tally, "dips_ok", "dips_total"), "ratio"),
        "digest_match_frac": _metric(_fraction(tally, "digests_ok", "digests_total"),
                                     "ratio"),
    }
    by_label: dict[str, list[float]] = {}
    for label, latency in zip(record.labels, scaled):
        by_label.setdefault(label, []).append(1e3 * latency)
    extra = {
        "raw": {
            "ops_per_s": record.attempted / sum(record.latencies),
            "latency_p50_ms": 1e3 * _percentile(raw, 50.0),
            "latency_tail_ms": 1e3 * tail_latency(raw, percentile)[0],
        },
        "host_probe": host.summary(),
        "latency_p50_ms_by_label": {k: statistics.median(v) for k, v in by_label.items()},
        "latency_tail_percentile": percentile,
        "latency_tail_samples_beyond": beyond,
        "latency_tail_has_min_samples": beyond >= MIN_BEYOND,
        "latency_samples": record.attempted,
        "error_rate": record.failed / record.attempted,
        "misclassified_frac": 1.0 - metrics["classified_frac"]["value"],
        "contract_violations": tally["dips_total"] - tally["dips_ok"],
        "output_digest_mismatches": tally["digests_total"] - tally["digests_ok"],
    }
    return metrics, extra


def per_layer_metrics(summary: dict, counts: dict, kernels, bytes_per_point: int,
                      base: Record, traced: Record) -> dict:
    calls, ms, self_ms = summary["calls"], summary["ms"], summary["self_ms"]

    def n_calls(name):
        return _metric(calls.get(name, 0), "count")

    def total_ms(name):
        return _metric(ms.get(name, 0.0), "ms")

    def counter(key, unit="count"):
        return _metric(counts.get(key, 0), unit)

    fits = counts.get("estimate.fits", 0)
    metrics = {
        "estimate.detect_dips.calls": n_calls("estimate.detect_dips"),
        "estimate.detect_dips.ms": total_ms("estimate.detect_dips"),
        "estimate.candidates": counter("estimate.candidates"),
        "estimate.fits": counter("estimate.fits"),
        "estimate.fit.nfev": counter("estimate.fit.nfev"),
        "estimate.fit.ms": total_ms("estimate.fit"),
        "estimate.dips_kept": counter("estimate.dips_kept"),
        "estimate.fit_useful_ratio": _metric(
            counts.get("estimate.dips_kept", 0) / fits if fits else 0.0, "ratio"),
        "estimate.detect_unity_points.ms": total_ms("estimate.detect_unity_points"),
        "io.read_spectrum_csv.calls": n_calls("io.read_spectrum_csv"),
        "io.read_spectrum_csv.ms": total_ms("io.read_spectrum_csv"),
        "io.read_spectrum_csv.rows": counter("io.read_spectrum_csv.rows"),
        "io.write_spectrum_csv.ms": total_ms("io.write_spectrum_csv"),
        "io.write_spectrum_csv.bytes": counter("io.write_spectrum_csv.bytes", "B"),
        "io.squid_json_text.ms": total_ms("io.squid_json_text"),
        "io.squid_json_text.bytes": counter("io.squid_json_text.bytes", "B"),
        "io.write_wavefunction_csv.ms": total_ms("io.write_wavefunction_csv"),
        "io.write_wavefunction_csv.bytes": counter("io.write_wavefunction_csv.bytes", "B"),
        "svg.write_chart.calls": n_calls("svg.write_chart"),
        "svg.write_chart.ms": total_ms("svg.write_chart"),
        "svg.write_chart.bytes": counter("svg.write_chart.bytes", "B"),
        "squid.solve_eigensystem.calls": n_calls("squid.solve_eigensystem"),
        "squid.solve_eigensystem.ms": total_ms("squid.solve_eigensystem"),
        "squid.eigh_tridiagonal.calls": n_calls("squid.eigh_tridiagonal"),
    }
    for kernel in kernels:
        name = f"models.{kernel}"
        points = counts.get(f"{name}.points", 0)
        metrics[f"{name}.calls"] = n_calls(name)
        metrics[f"{name}.ms"] = total_ms(name)
        metrics[f"{name}.points"] = _metric(points, "count")
        metrics[f"{name}.computed_bytes"] = _metric(points * bytes_per_point, "B")
    metrics.update({
        "models.analytic_features.ms": total_ms("models.analytic_features"),
        "params.Spectrum.init.calls": n_calls("params.Spectrum.init"),
        "params.Spectrum.init.ms": total_ms("params.Spectrum.init"),
        "cli.main.self_ms": _metric(self_ms.get("cli.main", 0.0), "ms"),
        "cli.sweep.threads": counter("cli.sweep.threads"),
    })
    for layer, value in summary["layer_self_ms"].items():
        if layer != "cli":  # cli.main is the cli layer's only span
            metrics[f"{layer}.self_ms"] = _metric(value, "ms")
    overhead = sum(traced.latencies) / sum(base.latencies) - 1.0
    metrics["trace.overhead_pct"] = _metric(100.0 * overhead, "%")
    return metrics


# -- run metadata -------------------------------------------------------------


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read().strip()
    except OSError:
        return ""


def _git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    head = _read(os.path.join(git, "HEAD"))
    if not head:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read(os.path.join(git, ref))
    if commit:
        return commit
    for line in _read(os.path.join(git, "packed-refs")).splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def cpu_steal_s() -> float:
    """CPU time the hypervisor gave to other guests, summed over CPUs, from
    /proc/stat (0 where it is not reported); a run whose steal grows is
    one the host slowed down."""
    lines = _read("/proc/stat").splitlines()
    fields = lines[0].split() if lines else []
    if len(fields) < 9:
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _caches() -> list[str]:
    caches = []
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind, size = (_read(os.path.join(index, f)) for f in ("level", "type", "size"))
        caches.append(f"L{level} {kind} {size}")
    return caches


def run_metadata(seed: int) -> dict:
    import numpy
    import scipy
    from qspectra import cli

    try:
        cap = cli.thread_cap()
    except cli.UsageError as exc:
        cap = f"invalid: {exc}"
    return {
        "git_commit": _git_commit(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "qspectra_threads_env": THREADS_ENV_AT_START,
        "qspectra_threads_cap": cap,
    }


# -- entry point ------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
                 workroot: str | None = None) -> tuple[dict, dict]:
    """Set up, measure and check one workload; returns (result, detail)."""
    workloads, tracer_module = _load()
    host = hostprobe.HostSpeed()
    workload = workloads.WORKLOADS[name]
    workroot = workroot or os.path.join(ROOT, ".bench_work")
    workdir = os.path.join(workroot, f"{name}-{os.getpid()}")
    detail = {"workload": workload.describe(), "seconds": seconds, "trace": int(trace),
              "tiny": tiny}
    try:
        raw_setups, setup_cpu = [], []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            os.makedirs(workdir)
            host.sample(hostprobe.AROUND_SETUP)
            t0, c0 = time.perf_counter(), time.process_time()
            state = workload.setup(workdir, seed, tiny)
            with contextlib.redirect_stdout(io.StringIO()):
                for op in workload.warmup_ops(state):
                    op.check(op.run())
            setup_cpu.append(time.process_time() - c0)
            raw_setups.append(time.perf_counter() - t0)
            host.sample(hostprobe.AROUND_SETUP)
        detail["meta"] = run_metadata(seed)
        detail["raw_setup_times_s"] = raw_setups
        # set-up CPU time at the reference speed, with one scale for the
        # three set-ups: the mean of all the probes around them
        setup_s = statistics.median(setup_cpu) * hostprobe.REFERENCE_PROBE_S \
            / host.mean_probe_s()
        steal_before = cpu_steal_s()
        if not trace:
            record = measure(workload, state, seconds, host)
            metrics, extra = end_to_end_metrics(record, setup_s, workload.tail_percentile,
                                                host)
            detail.update(extra)
        else:
            rounds = max(1, round(seconds / (2.0 * workload.nominal_round_s)))
            tracer = tracer_module.Tracer()
            base, record = measure_traced(workload, state, tracer, rounds)
            summary = tracer.summary()
            metrics = per_layer_metrics(summary, tracer.counts, tracer_module.AMPLITUDE_KERNELS,
                                        tracer_module.KERNEL_BYTES_PER_POINT, base, record)
            trace_path = os.path.join(workroot, "traces", f"{name}-seed{seed}.json")
            tracer.write(trace_path)
            detail.update(trace_file=trace_path, span_count=len(tracer.spans),
                          layer_self_ms=summary["layer_self_ms"])
            record.wrong += base.wrong
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    detail.update(cpu_steal_s=cpu_steal_s() - steal_before,
                  rounds=record.rounds, wall_s=record.wall_s, attempted=record.attempted,
                  failed=record.failed, failures=dict(record.failures),
                  wrong_count=len(record.wrong), wrong=record.wrong[:20],
                  tally={k: int(v) for k, v in record.tally.items()})
    result = {"correct": not record.wrong, "attempted": record.attempted,
              "failed": record.failed, "metrics": metrics}
    return result, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, detail = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except SourceMissing as exc:
        print(f"error: {exc}; run from the root of a qspectra source checkout",
              file=sys.stderr)
        return 2
    results_dir = os.path.join(ROOT, ".bench_work", "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}"
                                        ".json"), "w", encoding="utf-8") as handle:
        json.dump({"result": result, "detail": detail}, handle, indent=2)
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {detail['attempted']} ops in "
          f"{detail['rounds']} rounds, {detail['wall_s']:.1f} s, {detail['failed']} failed, "
          f"correct={result['correct']}")
    for key, metric in result["metrics"].items():
        print(f"  {key:44s} {metric['value']:14.6g} {metric['unit']}")
    for reason, count in detail["failures"].items():
        print(f"  failure x{count}: {reason}")
    for message in detail["wrong"]:
        print(f"  wrong: {message}")
    print("detail: " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
