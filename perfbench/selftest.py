"""Self-test of the benchmark itself.

usage: python3 perfbench/selftest.py [WORKLOAD ...]   (default: every workload)

For each workload it checks that
  * the correctness gate fails when one psi1 coefficient is tampered with
    (every record counted as failed, digest mismatch), so it is not vacuous;
  * two traced calls give exactly the same counts, ratios, bit and byte sizes;
  * every traced layer mapped to the workload in ``layers.json`` was reached
    (counts and times above zero), every traced function was found, each
    binding site named below was patched, and the originals were restored.
It also checks that BENCHMARK.json, ``layers.json`` and ``layertrace.UNITS``
list the same per-layer metrics.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

from layertrace import UNITS
from run import HERE, ROOT, WORK, WORKLOADS, Runner

# Modules that import a traced function by name; each must be patched too.
REQUIRED_SITES = (
    ("op_L", "qlogconvex.verification.op_L"),
    ("sturm_count_roots", "qlogconvex.verification.sturm_count_roots"),
    ("sign_constant_on", "qlogconvex.verification.sign_constant_on"),
    ("binom", "qlogconvex.verification.binom"),
    ("binom", "qlogconvex.families.binom"),
    ("family_poly", "qlogconvex.criteria.family_poly"),
    ("compare_products", "qlogconvex.criteria.compare_products"),
)

EXACT_UNITS = ("count", "ratio", "bits", "bytes")
REACHED_SUFFIXES = (".calls", ".lookups", "_s")


def check(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        sys.exit(1)


def check_metric_lists() -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    layer_map = json.loads((HERE / "layers.json").read_text(encoding="utf-8"))["metrics"]
    listed = {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]}
    check(listed == UNITS, "BENCHMARK.json per_layer matches layertrace.UNITS")
    check(set(layer_map) == set(UNITS), "layers.json maps every per-layer metric")
    check({w["name"] for w in bench["workloads"]} == set(WORKLOADS),
          "BENCHMARK.json names the workloads run.py defines")
    return layer_map


def main(argv: list[str]) -> int:
    workloads = argv or list(WORKLOADS)
    layer_map = check_metric_lists()
    workdir = WORK / f"selftest-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for workload in workloads:
            runner = Runner(workdir, time.monotonic() + 600)
            tampered = runner.verify(workload, "inject")
            check(tampered["attempted"] > 0 and tampered["failed"] == tampered["attempted"]
                  and not tampered["digest_ok"],
                  f"{workload}: tampered psi1 fails the gate "
                  f"({tampered['failed']}/{tampered['attempted']} records failed)")

            first, second = (runner.verify(workload, "trace") for _ in range(2))
            for traced in (first, second):
                check(traced["ok"] and traced["failed"] == 0 and traced["digest_ok"],
                      f"{workload}: traced call passes the gate")
                check(traced["restored"], f"{workload}: originals restored after tracing")
                check(not traced["missing"], f"{workload}: every traced function found "
                      f"(missing: {traced['missing']})")
            reported = set(first["layers"]) | {"verification.records", "trace_overhead_s"}
            check(reported == set(UNITS), f"{workload}: the tracer reports every per-layer metric")
            sites = first["sites"]
            for name, site in REQUIRED_SITES:
                check(site in sites.get(name, []), f"{workload}: {site} patched")
            exact = [m for m, (unit, _) in UNITS.items() if unit in EXACT_UNITS
                     and m in first["layers"]]
            diff = [m for m in exact if first["layers"][m] != second["layers"][m]]
            check(not diff, f"{workload}: {len(exact)} counts and ratios repeat exactly"
                  + (f" (differ: {diff})" if diff else ""))
            unreached = [m for m, entry in layer_map.items()
                         if m.endswith(REACHED_SUFFIXES)
                         and any(workload in ws for ws in entry["moves"].values())
                         and not first["layers"].get(m, 0) > 0]
            check(not unreached, f"{workload}: every mapped layer reached"
                  + (f" (not reached: {unreached})" if unreached else ""))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
