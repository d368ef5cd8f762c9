"""One fresh set-up: imports, then generating and writing the seeded inputs.

Run as a child process by the harness, several times per run, so that
every probe pays the imports afresh.  Prints ``{"setup_s": ...}``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402

import boot  # noqa: E402

boot.require_source()

import harness  # noqa: E402
import workloads  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    args = parser.parse_args()
    harness.cylcc_modules()
    workdir = boot.ROOT / ".bench_work" / f"probe-{args.workload}-p{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        sizes = (workloads.TINY if args.tiny else workloads.SIZES)[args.workload]
        workloads.SETUP[args.workload](args.seed, workdir, sizes)
        elapsed = time.perf_counter() - T0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        harness._remove_if_empty(workdir.parent)
    print(json.dumps({"setup_s": elapsed}))


if __name__ == "__main__":
    main()
