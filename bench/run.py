"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload exact --seed 1 --seconds 55 --trace 0

``--trace 0`` prints the end-to-end metrics (run_s, setup_s, peak_rss_mb,
pass_frac); ``--trace 1`` prints the per-layer metrics from a traced run.
Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
A full record (environment, every batch time, first failures) is written
to ``.bench_out/`` in the checkout.
"""

import argparse
import sys

import boot

boot.require_source()

import harness  # noqa: E402
import workloads  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    record = harness.measure(boot.ROOT, args.workload, args.seed, args.seconds, bool(args.trace))
    record["environment"] = harness.environment(boot.ROOT)
    path = harness.write_result(boot.ROOT, record)
    for line in harness.human_lines(record):
        print(line)
    print(f"  record: {path.relative_to(boot.ROOT)}")
    print(harness.final_line(record))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
