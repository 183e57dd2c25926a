"""Benchmark of `qlogconvex verify-paper`, gated on the certificate it writes.

usage: python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each timed repetition starts a fresh interpreter (``child.py``), imports the
package from ``src/`` and calls ``qlogconvex.cli.main(["verify-paper", ...])``
once: every CLI user pays for the cold memos, so they are not warmed.  The
inputs are fixed bound profiles, because the exact certificate is the
oracle; the seed only chooses the workload order of ``--workload all`` and
whether a traced run measures its traced call before or after the untraced
ones.

Every repetition must exit 0 with verdict ``pass``, and the SHA-256 of the
certificate's ``claims`` list (``timestamp`` and ``parameters`` left out)
must equal the digest pinned below.  A mismatch counts every record of that
repetition as failed.

With ``--trace 0`` the last line carries the end-to-end metrics (medians
over the repetitions of the run); with ``--trace 1`` it carries the
per-layer metrics of one traced call (see ``layertrace.py``).  The lines
before it print each metric by name with its unit, and a run record.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layertrace import UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# name -> (verify-paper flags, pinned claims digest, claim records)
WORKLOADS = {
    "paper_default": (
        ["--jobs", "1"],
        "a4af78a697b173f331f2aba90d51fbbceb2314f169cb3b19192591caf87506a0", 392),
    "paper_jobs2": (
        ["--jobs", "2"],
        "a4af78a697b173f331f2aba90d51fbbceb2314f169cb3b19192591caf87506a0", 392),
    "qlc_large": (
        ["--n-max-direct", "160", "--n-max-factorization", "2", "--n-max-sturm", "1",
         "--n-max-monotonicity", "2", "--n-max-root-ratio", "1", "--jobs", "1"],
        "4f82b9a16e16c58976d9143c392766dbe3ae8c05b5692141014c1723d130985d", 22),
    "proof_large": (
        ["--n-max-direct", "1", "--n-max-factorization", "2", "--n-max-sturm", "360",
         "--n-max-monotonicity", "560", "--n-max-root-ratio", "150", "--jobs", "1"],
        "a19c028b77c6f453f647f0831189809d993cad636f3bedf2316193e189c62bd7", 738),
}

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

MIN_REPS = 2          # timed calls per untraced run, whatever --seconds says
SETUP_PROBES = 5      # extra import-only launches per run, for setup_s
RUN_DEADLINE_S = 165  # no call is started that would end after this


class BenchError(Exception):
    """The checkout cannot be benchmarked (e.g. no package sources)."""


def claims_digest(certificate: dict) -> str:
    body = json.dumps(certificate["claims"], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


class Runner:
    """Launches child interpreters inside one work directory and gates them."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.launches = 0

    def launch(self, mode: str, cli_args: list[str] = ()) -> dict:
        self.launches += 1
        result_path = self.workdir / f"result-{self.launches}.json"
        cmd = [sys.executable, "-E", "-s", str(HERE / "child.py"), str(result_path),
               str(SRC), mode, *cli_args]
        env = dict(os.environ, TMPDIR=str(self.workdir))
        timeout = max(self.deadline - time.monotonic(), 1.0)
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, start_new_session=True)
        try:
            _, stderr = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            _, stderr = proc.communicate()
        finally:
            try:  # pool workers left behind by a crash
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        elapsed = time.monotonic() - start
        if not result_path.exists():
            sys.stderr.write(stderr.decode("utf-8", "replace")[-2000:])
            return {"elapsed": elapsed, "ok": False}
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result_path.unlink()
        if Path(result["module_file"]).parent != SRC / "qlogconvex":
            raise BenchError(f"imported {result['module_file']}, not the package in {SRC}")
        result.update(elapsed=elapsed, ok=True, setup_s=result["ready"] - start)
        return result

    def verify(self, workload: str, mode: str = "run") -> dict:
        """One gated verify-paper call; adds attempted/failed/digest_ok."""
        flags, digest, records = WORKLOADS[workload]
        cert_path = self.workdir / "certificate.json"
        result = self.launch(mode, ["verify-paper", *flags, "--out", str(cert_path)])
        try:
            certificate = json.loads(cert_path.read_text(encoding="utf-8"))
            cert_path.unlink()
        except (OSError, ValueError):
            certificate = None
        if not result["ok"] or certificate is None:
            result.update(attempted=records, failed=records, digest_ok=False, records=0)
            return result
        claims = certificate["claims"]
        result["digest_ok"] = claims_digest(certificate) == digest
        result["records"] = len(claims)
        result["attempted"] = len(claims)
        if (result["digest_ok"] and result["exit_code"] == 0
                and certificate["verdict"] == "pass"):
            result["failed"] = sum(1 for c in claims if c["outcome"] != "pass")
        else:
            result["failed"] = len(claims)
        return result


def _median(values):
    return statistics.median(values) if values else 0.0


def run_workload(workload: str, seconds: float, trace: bool, seed: int) -> dict:
    """Measure one workload for about ``seconds``; returns the result object."""
    start = time.monotonic()
    workdir = WORK / f"run-{os.getpid()}-{workload}"
    workdir.mkdir(parents=True, exist_ok=True)
    runner = Runner(workdir, start + RUN_DEADLINE_S)
    try:
        runner.launch("setup")  # writes bytecode; not counted
        setups = [runner.launch("setup")["setup_s"] for _ in range(SETUP_PROBES)]
        budget_end = time.monotonic() + seconds
        traced = None
        if trace and seed % 2 == 0:
            traced = runner.verify(workload, "trace")
        reps = []
        min_reps = 1 if trace else MIN_REPS
        while True:
            estimate = _median([r["elapsed"] for r in reps])
            now = time.monotonic()
            if reps and now + estimate > runner.deadline:
                break
            if len(reps) >= min_reps and now + estimate > budget_end:
                break
            reps.append(runner.verify(workload))
            if not reps[-1]["ok"]:
                break
        if trace and traced is None:
            traced = runner.verify(workload, "trace")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    calls = reps + ([traced] if traced else [])
    good = [r for r in reps if r["ok"]]
    attempted = sum(r["attempted"] for r in calls)
    failed = sum(r["failed"] for r in calls)
    setups += [r["setup_s"] for r in calls if r["ok"]]
    lines = [f"workload {workload}: {len(reps)} timed calls"
             + (" + 1 traced call" if traced else "")
             + f", {attempted} claim records, {failed} failed"]
    if not all(r["digest_ok"] for r in calls):
        lines.append("  certificate digest mismatch or missing certificate")
    lines.append(f"  failed_fraction {failed / max(attempted, 1):.6f} ratio")
    if trace:
        metrics = dict(traced.get("layers", {})) if traced["ok"] else {}
        metrics["verification.records"] = traced["records"]
        metrics["trace_overhead_s"] = (
            traced.get("wall_s", 0.0) - _median([r["wall_s"] for r in good]))
        units = {name: unit for name, (unit, _) in UNITS.items()}
        if traced.get("missing"):
            lines.append(f"  not traced (function not found): {', '.join(traced['missing'])}")
        if traced["ok"] and not traced["restored"]:
            lines.append("  tracer failed to restore the original functions")
        metrics = {m: metrics.get(m, 0) for m in units}
    else:
        units = END_TO_END_UNITS
        metrics = {
            "wall_s": _median([r["wall_s"] for r in good]),
            "cpu_s": _median([r["cpu_s"] for r in good]),
            "setup_s": _median(setups),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in good]),
        }
        samples = {"wall_s": [r["wall_s"] for r in good], "setup_s": setups}
        for name, values in samples.items():
            lines.append(f"  {name} samples: " + " ".join(f"{v:.4f}" for v in values))
    for name, value in metrics.items():
        lines.append(f"  {name} {value} {units[name]}")
    return {
        "correct": failed == 0 and bool(good) and all(r["ok"] for r in calls),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
        "lines": lines,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qlogconvex" / "cli.py").is_file():
        print(f"error: no package sources at {SRC}", file=sys.stderr)
        return 2
    workloads = [args.workload] if args.workload != "all" else list(WORKLOADS)
    random.Random(args.seed).shuffle(workloads)
    record = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_before": os.getloadavg(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workloads": workloads,
    }
    results = {}
    try:
        for workload in workloads:
            results[workload] = run_workload(workload, args.seconds, bool(args.trace), args.seed)
            print("\n".join(results[workload].pop("lines")), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        try:
            WORK.rmdir()
        except OSError:
            pass
    record["loadavg_after"] = os.getloadavg()
    print("run_record " + json.dumps(record))
    if len(results) == 1:
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
