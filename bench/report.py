"""Run workloads over several seeds, print every metric with its unit, and
write an aggregate ``BENCH_<label>.json``.

    python3 bench/report.py --seeds 1-10 --out bench/results/BENCH_baseline.json
    python3 bench/report.py --workloads numeric --seeds 1-5 --no-trace

Each run is a separate ``bench/run.py`` process, one after another.  For
every end-to-end metric the table gives the median, the quartiles, the
spread (interquartile distance over the median, as
``statistics.quantiles(values, n=4)`` gives the quartiles) and the bound
from ``BENCHMARK.json``.  ``fail_frac`` is printed per workload.  The
traced runs use the first three seeds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 180
TRACED_SEEDS = 3


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_one(workload, seed, seconds, trace):
    cmd = [
        sys.executable, str(ROOT / "bench" / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record_path = ROOT / ".bench_out" / f"BENCH_{workload}_s{seed}_t{trace}.json"
    return result, json.loads(record_path.read_text())


def stats(values):
    values = list(values)
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / abs(med) if med else 0.0
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "n": len(values)}


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--no-trace", action="store_true", help="skip the traced runs")
    parser.add_argument("--out", default=str(ROOT / ".bench_out" / "BENCH_local.json"))
    args = parser.parse_args()

    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    layer_names = [m["name"] for m in spec["per_layer"]]
    out = Path(args.out)
    summary = {"label": out.stem.removeprefix("BENCH_"), "seeds": seeds, "seconds": args.seconds, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            result, record = run_one(workload, seed, args.seconds, 0)
            runs.append((result, record))
            print(f"{workload} seed={seed} " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
            ) + f" fail_frac={record['fail_frac']:.4f} correct={result['correct']}", flush=True)
        entry = {
            "environment": runs[0][1]["environment"],
            "sizes": runs[0][1]["sizes"],
            "correct": all(r["correct"] for r, _ in runs),
            "fail_frac": dict(stats(rec["fail_frac"] for _, rec in runs),
                              values=[rec["fail_frac"] for _, rec in runs]),
            "end_to_end": {},
            "per_layer": {},
        }
        for name, meta in bounds.items():
            s = stats(r["metrics"][name]["value"] for r, _ in runs)
            s.update(unit=meta["unit"], better=meta["better"], bound=meta["bound"],
                     values=[r["metrics"][name]["value"] for r, _ in runs])
            entry["end_to_end"][name] = s
            within = name == "setup_s" or s["spread"] <= meta["bound"]
            ok &= within
        if not args.no_trace:
            traced = [run_one(workload, seed, args.seconds, 1)[0] for seed in seeds[:TRACED_SEEDS]]
            for name in layer_names:
                s = stats(r["metrics"][name]["value"] for r in traced)
                s["unit"] = traced[0]["metrics"][name]["unit"]
                entry["per_layer"][name] = s
        summary["workloads"][workload] = entry
        _print_workload(workload, entry)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"wrote {out}")
    return 0 if ok else 1


def _print_workload(workload, entry):
    ff = entry["fail_frac"]
    print(f"== {workload}  correct={entry['correct']}  fail_frac median={ff['median']:.4f} ratio")
    for name, s in entry["end_to_end"].items():
        flag = "" if name == "setup_s" or s["spread"] <= s["bound"] / 3 else "  <-- spread above bound/3"
        print(f"   {name:<12} median={s['median']:.6g} {s['unit']}  q1={s['q1']:.6g} q3={s['q3']:.6g}"
              f"  spread={s['spread']:.4f}  bound={s['bound']}{flag}")
    for name, s in entry["per_layer"].items():
        print(f"   {name:<28} median={s['median']:.6g} {s['unit']}")


if __name__ == "__main__":
    sys.exit(main())
