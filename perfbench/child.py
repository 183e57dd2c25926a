"""One `qlogconvex verify-paper` call in a fresh interpreter, measured from inside.

usage: python3 child.py RESULT_JSON SRC_DIR MODE [CLI_ARGS...]

MODE is one of
  setup   import the package and stop (a set-up probe);
  run     call ``qlogconvex.cli.main(CLI_ARGS)`` with tracing off;
  trace   the same call with every layer wrapped by ``layertrace``;
  inject  the same call with one psi1 coefficient tampered with, so that a
          correct gate must fail.

The result file receives the monotonic clock reading at which the package
had been imported (the parent started its clock just before launching this
interpreter), the wall time, the CPU time of this process and of its reaped
children (the pool workers) and the peak resident set size of both during
the call.
"""

import sys
import time

_result_path, _src_dir, _mode, *_cli_args = sys.argv[1:]
sys.path.insert(0, _src_dir)

import qlogconvex  # noqa: E402
import qlogconvex.cli  # noqa: E402

_ready = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402

# The cell whose psi1 polynomial the fault injection corrupts; it lies inside
# every workload's prop31 (build_theta) or prop32 (build_psi) range.
TAMPER_CELL = (7, 3)


def _inject_fault() -> None:
    from qlogconvex import proofpolys
    from qlogconvex.polynomials import Poly

    original = proofpolys.psi1_poly

    def tampered(n, t):
        poly = original(n, t)
        if (n, t) == TAMPER_CELL:
            return Poly((poly.coeffs[0] + 1,) + poly.coeffs[1:])
        return poly

    proofpolys.psi1_poly = tampered


def _cpu(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _call(tracer):
    from qlogconvex.exactcore import SHARED_BINOMIALS
    from qlogconvex.families import ARRAY_KINDS, get_array

    def array_entries():
        return sum(len(get_array(kind)._memo) for kind in ARRAY_KINDS)

    binom_before, array_before = len(SHARED_BINOMIALS), array_entries()
    cpu_self, cpu_children = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    exit_code = qlogconvex.cli.main(_cli_args)
    wall = time.perf_counter() - start
    children = _cpu(resource.RUSAGE_CHILDREN) - cpu_children
    out = {
        "exit_code": exit_code,
        "wall_s": wall,
        "cpu_s": _cpu(resource.RUSAGE_SELF) - cpu_self + children,
        "peak_rss_mb": max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                           resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024,
    }
    if tracer is not None:
        out["layers"] = tracer.metrics(children, len(SHARED_BINOMIALS),
                                       len(SHARED_BINOMIALS) - binom_before,
                                       array_entries() - array_before)
    return out


def main() -> None:
    result = {"ready": _ready, "module_file": os.path.abspath(qlogconvex.__file__)}
    tracer = None
    if _mode == "trace":
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
    elif _mode == "inject":
        _inject_fault()
    elif _mode != "run" and _mode != "setup":
        raise SystemExit(f"unknown mode {_mode!r}")
    if _mode != "setup":
        if tracer is None:
            result.update(_call(None))
        else:
            try:
                result.update(_call(tracer))
            finally:
                result["restored"] = tracer.restore()
            result["sites"] = tracer.sites
            result["missing"] = tracer.missing
    with open(_result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


main()
