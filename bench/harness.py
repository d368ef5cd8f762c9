"""Timing loop, set-up probes, result file and metric assembly.

End-to-end metrics come from an untraced run: the fixed batch repeats
for ``seconds``, and a batch is not started once it would not finish in
time.  The batch's best-of-N wall time is the sum over its operations
(call plus check) of each one's fastest repetition, and is ``run_s``.
``setup_s`` is the median of nine fresh set-ups, each in a child
process, spread between the batches.  The work is deterministic, so
other tenants of a shared machine can only slow it down; the fastest of
many short, spread-out repetitions is the estimate least moved by them.
The record also keeps every batch, operation and set-up time.

``attempted`` and ``failed`` count the operations of one batch: the batch
is the same on every repetition, and every repetition must give each
operation the same outcome, or the run is not ``correct``.  So the counts
depend on the seed only, never on how many repetitions fit in the time.

Per-layer metrics come from a separate traced run that alternates
untraced and traced repetitions.  Counts come from one traced batch (they
repeat exactly, which is checked); each layer's ``self_s`` is its fastest
traced repetition; the tracing overhead is the traced best-of-N batch
time over the untraced one, minus one.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import boot
import spans
import workloads

SETUP_PROBES = 9
PROBE_TIMEOUT_S = 120

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "pass_frac": "ratio"}


def per_layer_units():
    units = {}
    for layer in spans.LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.failed"] = "count"
        for name in spans.WORK_COUNTERS[layer]:
            units[f"{layer}.{name}"] = "bits" if name == "max_entry_bits" else "count"
    units["trace.overhead_frac"] = "ratio"
    return units


def cylcc_modules():
    import importlib
    from types import SimpleNamespace

    return SimpleNamespace(
        **{layer: importlib.import_module(f"cylcc.{layer}") for layer in spans.LAYERS}
    )


def _work_dir(root, tag):
    path = Path(root) / ".bench_work" / f"{tag}-p{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _remove_if_empty(path):
    try:
        path.rmdir()
    except OSError:  # another run still uses it
        pass


def run_batch(name, ctx, cy):
    ledger = workloads.Ledger()
    t0 = time.perf_counter()
    workloads.BATCH[name](ctx, cy, ledger)
    return time.perf_counter() - t0, ledger


def probe_setup(root, name, seed, tiny=False):
    """Wall time of one fresh set-up (imports, generate, write) in a child process."""
    cmd = [sys.executable, str(Path(__file__).with_name("probe.py")),
           "--workload", name, "--seed", str(seed)] + (["--tiny"] if tiny else [])
    proc = subprocess.run(
        cmd, cwd=root, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def measure(root, name, seed, seconds, trace, tiny=False):
    """Run one workload for ``seconds``; returns the full result record.

    ``tiny`` selects the self-test sizes.
    """
    sizes = (workloads.TINY if tiny else workloads.SIZES)[name]
    cy = cylcc_modules()
    workdir = _work_dir(root, f"{name}-s{seed}")
    try:
        ctx = workloads.SETUP[name](seed, workdir, sizes)
        if trace:
            record = _traced(name, seconds, ctx, cy)
        else:
            record = _untraced(name, seconds, ctx, cy, lambda: probe_setup(root, name, seed, tiny))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        _remove_if_empty(workdir.parent)
    record.update(workload=name, seed=seed, seconds=seconds, trace=int(trace), sizes=sizes)
    return record


def best_of(ledgers):
    """Sum over the batch's operations of each one's fastest repetition."""
    fastest = {}
    for ledger in ledgers:
        for name, dt in ledger.seconds.items():
            fastest[name] = min(dt, fastest.get(name, dt))
    return sum(fastest.values())


def _summary(ledgers, batch_times):
    first = ledgers[0]
    reproducible = all(l.outcomes == first.outcomes for l in ledgers)
    return {
        "correct": reproducible and all(l.canary_failed == 0 for l in ledgers),
        "reproducible": reproducible,
        "attempted": first.attempted,
        "failed": first.failed,
        "fail_frac": first.failed / first.attempted,
        "first_failures": first.failures,
        "repetitions": len(batch_times),
        "batch_s": batch_times,
        "fastest_batch_s": min(batch_times),
        "op_s": [l.seconds for l in ledgers],
    }


def _untraced(name, seconds, ctx, cy, probe):
    """Batches for ``seconds``, with the set-up probes spread between them."""
    times, ledgers, setups = [], [], []
    start = time.perf_counter()
    while True:
        dt, ledger = run_batch(name, ctx, cy)
        times.append(dt)
        ledgers.append(ledger)
        elapsed = time.perf_counter() - start
        if len(setups) < SETUP_PROBES and len(setups) * seconds < SETUP_PROBES * elapsed:
            setups.append(probe())
            elapsed = time.perf_counter() - start
        pending = (SETUP_PROBES - len(setups)) * statistics.median(setups or [1.0])
        if elapsed + statistics.median(times) + pending > seconds:
            break
    while len(setups) < SETUP_PROBES:
        setups.append(probe())
    record = _summary(ledgers, times)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record["setup_samples_s"] = setups
    record["metrics"] = {
        "run_s": best_of(ledgers),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_kb / 1024.0,
        "pass_frac": 1.0 - record["fail_frac"],
    }
    return record


def _traced(name, seconds, ctx, cy):
    tracer = spans.Tracer()
    plain, traced, ledgers, snapshots = [], [], [], []
    start = time.perf_counter()
    while True:
        dt, ledger = run_batch(name, ctx, cy)
        plain.append(dt)
        ledgers.append(ledger)
        tracer.reset()
        tracer.install()
        try:
            dt, ledger = run_batch(name, ctx, cy)
        finally:
            tracer.uninstall()
        traced.append(dt)
        ledgers.append(ledger)
        snapshots.append(tracer.snapshot())
        pair = statistics.median(plain) + statistics.median(traced)
        if time.perf_counter() - start + pair > seconds:
            break
    record = _summary(ledgers, plain + traced)
    record["missing_functions"] = tracer.missing
    counts_repeat = all(
        {k: v for k, v in s.items() if not k.endswith(".self_s")}
        == {k: v for k, v in snapshots[0].items() if not k.endswith(".self_s")}
        for s in snapshots
    )
    record["correct"] = record["correct"] and counts_repeat
    metrics = dict(snapshots[0])
    for key in metrics:
        if key.endswith(".self_s"):
            metrics[key] = min(s[key] for s in snapshots)
    metrics["trace.overhead_frac"] = best_of(ledgers[1::2]) / best_of(ledgers[0::2]) - 1.0
    record["metrics"] = metrics
    record["untraced_batch_s"] = plain
    record["traced_batch_s"] = traced
    return record


def environment(root):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except Exception:  # older numpy has no dict mode; the name is informative only
        blas = "unknown"
    return {
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "system": f"{platform.system()} {platform.release()}",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in boot.BLAS_THREAD_VARS},
        "commit": _commit(Path(root)),
    }


def _commit(root):
    """HEAD of the checkout's git directory, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def write_result(root, record):
    out = Path(root) / ".bench_out"
    out.mkdir(exist_ok=True)
    path = out / f"BENCH_{record['workload']}_s{record['seed']}_t{record['trace']}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    return path


def final_line(record):
    """The one-line JSON the benchmark ends with."""
    units = END_TO_END_UNITS if not record["trace"] else per_layer_units()
    return json.dumps(
        {
            "correct": bool(record["correct"]),
            "attempted": int(record["attempted"]),
            "failed": int(record["failed"]),
            "metrics": {
                name: {"value": record["metrics"][name], "unit": unit}
                for name, unit in units.items()
            },
        }
    )


def human_lines(record):
    m = record["metrics"]
    head = (
        f"workload={record['workload']} seed={record['seed']} trace={record['trace']} "
        f"reps={record['repetitions']} correct={record['correct']} "
        f"fail_frac={record['fail_frac']:.4f} ratio ({record['failed']}/{record['attempted']})"
    )
    units = END_TO_END_UNITS if not record["trace"] else per_layer_units()
    body = [f"  {name} = {m[name]:.6g} {unit}" for name, unit in units.items()]
    tail = [f"  first failure: {f}" for f in record["first_failures"][:3]]
    return [head] + body + tail
