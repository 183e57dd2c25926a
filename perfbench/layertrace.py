"""Per-layer tracing of one verify-paper call, installed from outside the package.

Each traced function is replaced at every binding site, that is in every
``qlogconvex`` module whose namespace holds the function object, and methods
are replaced on their class.  Nothing under ``src/`` changes.  Timed wrappers
keep a span stack, so a span's self time is its duration minus the time of
the spans it called; the bookkeeping of a wrapper's own hooks (classifying
a product, pickling pool results) is credited to no span.  Counting wrappers
only count calls, and their small cost lands in the caller's self time.

Spans opened inside pool worker processes (``--jobs`` > 1) are not
captured: the workers are forked copies and their counters die with them.
The parent sees only its own waiting in ``Pool.map`` and, through
``RUSAGE_CHILDREN``, the workers' CPU time, which in a traced call includes
the cost of the wrappers the workers inherited.
"""

from __future__ import annotations

import multiprocessing.pool
import pickle
import sys
from collections import Counter, defaultdict
from time import perf_counter

# Timed spans: stat name -> (module, attribute).  A dotted attribute is a
# method, replaced on its class.
TIMED = {
    "cli": ("cli", "main"),
    "assemble": ("verification", "run_full_verification"),
    "prop31": ("verification", "verify_prop31"),
    "prop32": ("verification", "verify_prop32"),
    "prop33": ("verification", "verify_prop33"),
    "claims123": ("verification", "verify_claims"),
    "factorization": ("verification", "factorization_sweep"),
    "grid_identities": ("verification", "identity_grid_check"),
    "series": ("verification", "series_claim"),
    "monotonicity": ("verification", "_monotonicity_claim"),
    "qlc": ("verification", "_qlc_claim"),
    "psi_poly": ("proofpolys", "psi_poly"),
    "build_psi": ("proofpolys", "build_psi"),
    "build_theta": ("proofpolys", "build_theta"),
    "build_psi_nn": ("proofpolys", "build_psi_nn"),
    "mul": ("polynomials", "Poly.__mul__"),
    "eval": ("polynomials", "Poly.__call__"),
    "sturm_count_roots": ("polynomials", "sturm_count_roots"),
    "sign_constant_on": ("polynomials", "sign_constant_on"),
    "divmod_poly": ("polynomials", "divmod_poly"),
    "family_poly": ("families", "family_poly"),
    "q_log_convex_direct": ("criteria", "q_log_convex_direct"),
    "op_L": ("criteria", "op_L"),
    "root_monotonicity_check": ("criteria", "root_monotonicity_check"),
    "compare_products": ("hiprec", "compare_products"),
    "log2_bounds": ("hiprec", "log2_bounds"),
    "ccl_constant_bounds": ("hiprec", "ccl_constant_bounds"),
}

# Call counters without timing, for functions too small or too frequent to
# time without drowning the spans around them.
COUNTED = {
    "factorization_check": ("verification", "factorization_check"),
    "single_crossing": ("criteria", "single_crossing"),
    "domb_number": ("families", "domb_number"),
    "array": ("families", "TriangularArray.__call__"),
    "binom": ("exactcore", "binom"),
    "binom_lookup": ("exactcore", "BinomialCache.get"),
}

# A Poly product is "big" when an operand coefficient, numerator or
# denominator does not fit in 64 bits.
BIG_BITS = 64

# Per-layer metric -> (unit, better).  BENCHMARK.json lists the same names.
UNITS = {
    **{f"verification.{s}.total_s": ("s", "lower") for s in (
        "prop31", "prop32", "prop33", "claims123", "factorization", "grid_identities",
        "series", "qlc_D", "qlc_W", "qlc_V", "qlc_F", "monotonicity")},
    "verification.factorization_check.calls": ("count", "lower"),
    "verification.assemble.self_s": ("s", "lower"),
    "verification.records": ("count", "higher"),
    "proofpolys.psi_poly.calls": ("count", "lower"),
    "proofpolys.psi_poly.self_s": ("s", "lower"),
    "proofpolys.psi_poly.distinct_ratio": ("ratio", "higher"),
    "proofpolys.build_psi.total_s": ("s", "lower"),
    "proofpolys.build_theta.total_s": ("s", "lower"),
    "proofpolys.build_psi_nn.total_s": ("s", "lower"),
    "polynomials.mul_big.calls": ("count", "lower"),
    "polynomials.mul_big.self_s": ("s", "lower"),
    "polynomials.mul_small.calls": ("count", "lower"),
    "polynomials.mul_small.self_s": ("s", "lower"),
    "polynomials.max_coeff_bits": ("bits", "lower"),
    "polynomials.sturm_count_roots.calls": ("count", "lower"),
    "polynomials.sturm_count_roots.total_s": ("s", "lower"),
    "polynomials.sign_constant_on.calls": ("count", "lower"),
    "polynomials.sign_constant_on.total_s": ("s", "lower"),
    "polynomials.divmod_poly.calls": ("count", "lower"),
    "polynomials.divmod_poly.self_s": ("s", "lower"),
    "polynomials.eval.calls": ("count", "lower"),
    "polynomials.eval.self_s": ("s", "lower"),
    "families.family_poly.calls": ("count", "lower"),
    "families.family_poly.self_s": ("s", "lower"),
    "families.array.lookups": ("count", "lower"),
    "families.array.hit_ratio": ("ratio", "higher"),
    "families.domb_number.calls": ("count", "lower"),
    "exactcore.binom.calls": ("count", "lower"),
    "exactcore.binom.entries": ("count", "lower"),
    "exactcore.binom.hit_ratio": ("ratio", "higher"),
    "criteria.q_log_convex_direct.total_s": ("s", "lower"),
    "criteria.op_L.calls": ("count", "lower"),
    "criteria.op_L.self_s": ("s", "lower"),
    "criteria.single_crossing.calls": ("count", "lower"),
    "criteria.root_monotonicity_check.total_s": ("s", "lower"),
    "hiprec.compare_products.calls": ("count", "lower"),
    "hiprec.compare_products.total_s": ("s", "lower"),
    "hiprec.log2_bounds.calls": ("count", "lower"),
    "hiprec.log2_bounds.self_s": ("s", "lower"),
    "hiprec.log2_bounds.escalations": ("count", "lower"),
    "hiprec.ccl_constant_bounds.total_s": ("s", "lower"),
    "pool.wait_s": ("s", "lower"),
    "pool.child_cpu_s": ("s", "lower"),
    "pool.result_bytes": ("bytes", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace_overhead_s": ("s", "lower"),
}


def _coeff_bits(c) -> int:
    if isinstance(c, int):
        return c.bit_length()
    return max(c.numerator.bit_length(), c.denominator.bit_length())


def _max_bits(values) -> int:
    return max((_coeff_bits(c) for c in values), default=0)


class Tracer:
    """Span and counter store plus the patches that feed it."""

    def __init__(self) -> None:
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total_s, self_s
        self.counts = Counter()
        self.max_coeff_bits = 0
        self.psi_cells: set = set()
        self.result_bytes = 0
        self.sites: dict[str, list[str]] = {}
        self.missing: list[str] = []
        self._stack = [[0.0]]
        self._patches: list[tuple[object, str, object]] = []

    # --- wrappers ---------------------------------------------------------

    def _timed(self, name, fn, key=None, observe=None):
        stats, stack = self.stats, self._stack

        def wrapper(*args, **kwargs):
            if key is None:
                stat = name
            else:
                t = perf_counter()
                stat = key(args)
                stack[-1][0] += perf_counter() - t
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                record = stats[stat]
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - frame[0]
                stack[-1][0] += elapsed
            if observe is not None:
                t = perf_counter()
                observe(result)
                stack[-1][0] += perf_counter() - t
            return result

        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _mul_key(self, args) -> str:
        this, other = args
        operand = other.coeffs if hasattr(other, "coeffs") else (other,)
        bits = max(_max_bits(this.coeffs), _max_bits(operand))
        if bits > self.max_coeff_bits:
            self.max_coeff_bits = bits
        return "mul_big" if bits > BIG_BITS else "mul_small"

    def _psi_key(self, args) -> str:
        self.psi_cells.add(args)
        return "psi_poly"

    def _log2_key(self, args) -> str:
        if args[1] > 64:  # compare_products starts at 64 bits and doubles
            self.counts["log2_escalations"] += 1
        return "log2_bounds"

    def _pool_observe(self, result) -> None:
        self.result_bytes += len(pickle.dumps(result))

    def _wrapper_for(self, name, fn):
        if name in COUNTED:
            return self._counted(name, fn)
        key = {
            "mul": self._mul_key,
            "psi_poly": self._psi_key,
            "log2_bounds": self._log2_key,
            "qlc": lambda args: f"qlc_{args[0]}",
        }.get(name)
        return self._timed(name, fn, key=key)

    # --- installation -----------------------------------------------------

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every traced function at every binding site."""
        modules = {name: mod for name, mod in list(sys.modules.items())
                   if name == "qlogconvex" or name.startswith("qlogconvex.")}
        for name, (module, attr) in {**TIMED, **COUNTED}.items():
            mod = modules.get(f"qlogconvex.{module}")
            owner = mod
            if mod is not None and "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(mod, cls_name, None)
            if owner is None or attr not in vars(owner):
                self.missing.append(f"{module}.{attr}")
                continue
            original = vars(owner)[attr]
            wrapper = self._wrapper_for(name, original)
            if owner is not mod:  # a method: one binding, on its class
                self._patch(owner, attr, wrapper)
                if name == "mul":  # Poly.__rmul__ is the same function
                    self._patch(owner, "__rmul__", wrapper)
                self.sites[name] = [f"{module}.{owner.__name__}.{attr}"]
                continue
            self.sites[name] = []
            for mod_name, other in sorted(modules.items()):
                for binding, value in list(vars(other).items()):
                    if value is original:
                        self._patch(other, binding, wrapper)
                        self.sites[name].append(f"{mod_name}.{binding}")
        pool_map = multiprocessing.pool.Pool.map
        self._patch(multiprocessing.pool.Pool, "map",
                    self._timed("pool_map", pool_map, observe=self._pool_observe))

    def restore(self) -> bool:
        """Put every original back; True when each binding site holds it again."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        ok = all(owner.__dict__[attr] is original for owner, attr, original in self._patches)
        self._patches.clear()
        return ok

    # --- results ----------------------------------------------------------

    def metrics(self, child_cpu_s: float, binom_entries: int, binom_added: int,
                array_added: int) -> dict[str, float]:
        """Per-layer metrics of the traced call, except the two the caller adds
        (``verification.records`` and ``trace_overhead_s``)."""
        stats, counts = self.stats, self.counts

        def calls(stat):
            return stats[stat][0] if stat in stats else 0

        def total(stat):
            return stats[stat][1] if stat in stats else 0.0

        def own(stat):
            return stats[stat][2] if stat in stats else 0.0

        def ratio(part, whole):
            return part / whole if whole else 0.0

        out = {f"verification.{s}.total_s": total(s) for s in (
            "prop31", "prop32", "prop33", "claims123", "factorization", "grid_identities",
            "series", "qlc_D", "qlc_W", "qlc_V", "qlc_F", "monotonicity")}
        out.update({
            "verification.factorization_check.calls": counts["factorization_check"],
            "verification.assemble.self_s": own("assemble"),
            "proofpolys.psi_poly.calls": calls("psi_poly"),
            "proofpolys.psi_poly.self_s": own("psi_poly"),
            "proofpolys.psi_poly.distinct_ratio": ratio(len(self.psi_cells), calls("psi_poly")),
            "proofpolys.build_psi.total_s": total("build_psi"),
            "proofpolys.build_theta.total_s": total("build_theta"),
            "proofpolys.build_psi_nn.total_s": total("build_psi_nn"),
            "polynomials.mul_big.calls": calls("mul_big"),
            "polynomials.mul_big.self_s": own("mul_big"),
            "polynomials.mul_small.calls": calls("mul_small"),
            "polynomials.mul_small.self_s": own("mul_small"),
            "polynomials.max_coeff_bits": self.max_coeff_bits,
            "polynomials.sturm_count_roots.calls": calls("sturm_count_roots"),
            "polynomials.sturm_count_roots.total_s": total("sturm_count_roots"),
            "polynomials.sign_constant_on.calls": calls("sign_constant_on"),
            "polynomials.sign_constant_on.total_s": total("sign_constant_on"),
            "polynomials.divmod_poly.calls": calls("divmod_poly"),
            "polynomials.divmod_poly.self_s": own("divmod_poly"),
            "polynomials.eval.calls": calls("eval"),
            "polynomials.eval.self_s": own("eval"),
            "families.family_poly.calls": calls("family_poly"),
            "families.family_poly.self_s": own("family_poly"),
            "families.array.lookups": counts["array"],
            # a lookup "hits" when it is answered without computing a new entry
            "families.array.hit_ratio": ratio(counts["array"] - array_added, counts["array"]),
            "families.domb_number.calls": counts["domb_number"],
            "exactcore.binom.calls": counts["binom"],
            "exactcore.binom.entries": binom_entries,
            "exactcore.binom.hit_ratio": ratio(counts["binom_lookup"] - binom_added,
                                               counts["binom_lookup"]),
            "criteria.q_log_convex_direct.total_s": total("q_log_convex_direct"),
            "criteria.op_L.calls": calls("op_L"),
            "criteria.op_L.self_s": own("op_L"),
            "criteria.single_crossing.calls": counts["single_crossing"],
            "criteria.root_monotonicity_check.total_s": total("root_monotonicity_check"),
            "hiprec.compare_products.calls": calls("compare_products"),
            "hiprec.compare_products.total_s": total("compare_products"),
            "hiprec.log2_bounds.calls": calls("log2_bounds"),
            "hiprec.log2_bounds.self_s": own("log2_bounds"),
            "hiprec.log2_bounds.escalations": counts["log2_escalations"],
            "hiprec.ccl_constant_bounds.total_s": total("ccl_constant_bounds"),
            "pool.wait_s": total("pool_map"),
            "pool.child_cpu_s": child_cpu_s,
            "pool.result_bytes": self.result_bytes,
            "cli.self_s": own("cli"),
        })
        return out
