"""Fast self-test of the benchmark itself (tiny sizes, under half a minute).

    python3 bench/selftest.py

Checks that every metric named in BENCHMARK.json is emitted with its
unit, that a planted wrong expected answer is counted as a failure, and
that the span wrappers patch every binding site, record a missing
function as zero, and never count nested time twice.  Exits non-zero on
the first broken check.
"""

import json
import shutil
import time

import boot

boot.require_source()

import harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def check(condition, what):
    if not condition:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def metrics_emitted(spec):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for name in workloads.WORKLOADS:
            record = harness.measure(boot.ROOT, name, 3, 0.0, bool(trace), tiny=True)
            line = json.loads(harness.final_line(record))
            check(set(line) == {"correct", "attempted", "failed", "metrics"},
                  f"{name} trace={trace}: result keys")
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            check(got == want, f"{name} trace={trace}: every {key} metric with its unit")
            check(all(isinstance(v["value"], (int, float)) for v in line["metrics"].values()),
                  f"{name} trace={trace}: numeric values")
            check(line["correct"] and line["attempted"] >= 1, f"{name} trace={trace}: canary passes")


def planted_failures():
    """Each planted wrong expectation turns exactly one passing operation into a failure."""
    cy = harness.cylcc_modules()
    workdir = boot.ROOT / ".bench_work" / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)

    def first_passing(ledger, prefix):
        return next(int(n[len(prefix):]) for n, ok in ledger.outcomes if ok and n.startswith(prefix))

    def wrong_betti(ctx, ledger):
        ctx["exact_complex"]["complexes"][0]["info"]["betti"][1] += 1

    def wrong_sign(ctx, ledger):
        signs = ctx["exact_signs"]["signs"]
        signs[first_passing(ledger, "signs.comparison")]["expected"] *= -1

    def wrong_ds0(ctx, ledger):
        ctx["exact_signs"]["ds0"][first_passing(ledger, "signs.ds0_")]["expected"] *= -1

    try:
        for name, plant, what in (
            ("exact", wrong_betti, "wrong Betti number"),
            ("exact", wrong_sign, "wrong comparison sign"),
            ("exact", wrong_ds0, "wrong ds0 sign"),
        ):
            ctx = workloads.SETUP[name](5, workdir, workloads.TINY[name])
            base = harness.run_batch(name, ctx, cy)[1]
            plant(ctx, base)
            planted = harness.run_batch(name, ctx, cy)[1]
            check(planted.failed == base.failed + 1 and planted.canary_failed == 0,
                  f"{name}: a planted {what} is counted as one more failure")
        counts = set()
        for seed in (5, 6, 7):
            ctx = workloads.SETUP["exact"](seed, workdir, workloads.TINY["exact"])
            ledger = harness.run_batch("exact", ctx, cy)[1]
            counts.add((ledger.attempted, ledger.failed))
        check(len(counts) == 1, f"exact: attempted and failed do not depend on the seed {counts}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def tracing():
    cy = harness.cylcc_modules()
    original = cy.complexes.load_dataset
    original_cf = cy.spectral.closed_form_spectrum
    spans.WRAPPED["complexes"]["no_such_function"] = None
    tracer = spans.Tracer()
    tracer.install()
    try:
        wrapped = cy.complexes.load_dataset
        check(wrapped is not original and cy.dataio.load_dataset is wrapped,
              "load_dataset wrapped at both binding sites")
        check(cy.gluing.closed_form_spectrum is cy.spectral.closed_form_spectrum is not original_cf,
              "closed_form_spectrum wrapped in gluing too")
        check(tracer.missing == ["complexes.no_such_function"], "missing function recorded")
        dataset = cy.dataio.read_dataset(
            cy.dataio.bundled_path("consistent_orbits.txt"),
            cy.dataio.bundled_path("consistent_curves.txt"),
        )
        tracer.reset()
        t0 = time.perf_counter()
        cy.complexes.side_complexes(dataset)  # nests differential_matrix twice
        wall = time.perf_counter() - t0
        stats = tracer.stats["complexes"]
        check(stats.calls == 3 and 0 < stats.self_s <= wall,
              "nested same-layer spans are not double counted")
    finally:
        tracer.uninstall()
        del spans.WRAPPED["complexes"]["no_such_function"]
    check(cy.complexes.load_dataset is original and cy.dataio.load_dataset is original,
          "uninstall restores the originals")


def main():
    spec = json.loads((boot.ROOT / "BENCHMARK.json").read_text())
    tracing()
    planted_failures()
    metrics_emitted(spec)
    print("selftest passed")


if __name__ == "__main__":
    main()
