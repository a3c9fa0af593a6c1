"""Spans recorded from outside psskit, and the per-layer metrics they give.

``Tracer.install`` wraps every public function of each psskit layer module
and the property suite's named checks, and rebinds the wrappers in every
psskit namespace that imported the originals (``from .ratlin import rank``
binds a local name, so patching ``ratlin`` alone would miss those calls).
Each call becomes a span: name, start, end, parent span and operation id,
kept in flat arrays in memory and written out once the run ends.
"""

import inspect
import sys
from array import array
from fractions import Fraction
from time import perf_counter_ns

from checks import SUITE_CHECKS

LAYERS = ("ratlin", "spanset", "simplicial", "latticemod", "conical", "gale", "suite", "cli")

LP = ("ratlin.solve_nonneg", "ratlin.strict_separator")
ELIM = ("ratlin.rank", "ratlin.column_rank", "ratlin.kernel_basis", "ratlin.solve_linear")
ENUM_SIMPLICES = "simplicial.enumerate_simplices"
ENUM_MNS = "conical.enumerate_mns"
BUILD_LATTICE = "latticemod.build_lattice"
PARSE = "cli.parse_vecset"

ERROR = -1  # span value of a call that raised RuntimeError


def _bits(values) -> int:
    best = 0
    for q in values:
        q = Fraction(q)
        best = max(best, q.numerator.bit_length(), q.denominator.bit_length())
    return best


class Tracer:
    """In-memory span store plus the patching that feeds it."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.op = array("l")
        self.value = array("l")  # LP: 1 infeasible; enumerations: items returned
        self.op_id = -1
        self.max_bits = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _measure(self, qualname: str, result) -> int:
        if qualname in LP:
            if result.coeffs is not None:
                self.max_bits = max(self.max_bits, _bits(result.coeffs.values()))
            elif result.separator is not None:
                self.max_bits = max(self.max_bits, _bits(result.separator.entries))
            return int(not result.feasible)
        if qualname == "ratlin.kernel_basis":
            for v in result:
                self.max_bits = max(self.max_bits, _bits(v.entries))
        elif qualname == "ratlin.solve_linear" and result is not None:
            self.max_bits = max(self.max_bits, _bits(result))
        elif qualname in (ENUM_SIMPLICES, ENUM_MNS):
            return len(result)
        elif qualname == BUILD_LATTICE:
            return len(result.elements)
        return 0

    def _wrap(self, fn, qualname: str):
        name_id = len(self.names)
        self.names.append(qualname)
        measured = qualname in LP or qualname in (
            "ratlin.kernel_basis",
            "ratlin.solve_linear",
            ENUM_SIMPLICES,
            ENUM_MNS,
            BUILD_LATTICE,
        )
        names, starts, ends = self.name, self.start, self.end
        parents, ops, values, stack = self.parent, self.op, self.value, self._stack

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            values.append(0)
            ends.append(0)
            stack.append(idx)
            starts.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            except RuntimeError:
                values[idx] = ERROR
                raise
            finally:
                ends[idx] = perf_counter_ns()
                stack.pop()
            if measured:
                values[idx] = self._measure(qualname, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- patching ------------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of every layer and the suite checks."""
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"psskit.{layer}"]
            for attr, fn in inspect.getmembers(mod, inspect.isfunction):
                if fn.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") and not (layer == "suite" and attr in SUITE_CHECKS):
                    continue
                wrappers[id(fn)] = self._wrap(fn, f"{layer}.{attr}")
        for modname, mod in list(sys.modules.items()):
            if modname != "psskit" and not modname.startswith("psskit."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- output --------------------------------------------------------

    def write(self, path) -> None:
        """One tab-separated line per span, in start order."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart_ns\tend_ns\tparent\top\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.names[self.name[i]]}\t{self.start[i]}\t"
                    f"{self.end[i]}\t{self.parent[i]}\t{self.op[i]}\n"
                )

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals: counts, self times and ratios (see bench/README.md)."""
        n = len(self.start)
        names = [self.names[k] for k in self.name]
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        under_simplices = bytearray(n)
        under_mns = bytearray(n)
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
                under_simplices[i] = under_simplices[p] or names[p] == ENUM_SIMPLICES
                under_mns[i] = under_mns[p] or names[p] == ENUM_MNS

        calls: dict[str, int] = {}
        self_ns: dict[str, int] = {}
        incl_ns: dict[str, int] = {}
        value: dict[str, int] = {}
        layer_calls: dict[str, int] = dict.fromkeys(LAYERS, 0)
        layer_self: dict[str, int] = dict.fromkeys(LAYERS, 0)
        elim_under_simplices = seps_under_mns = errors = 0
        for i in range(n):
            name = names[i]
            own = dur[i] - child[i]
            calls[name] = calls.get(name, 0) + 1
            self_ns[name] = self_ns.get(name, 0) + own
            incl_ns[name] = incl_ns.get(name, 0) + dur[i]
            layer = name.split(".", 1)[0]
            layer_calls[layer] += 1
            layer_self[layer] += own
            v = self.value[i]
            if v == ERROR:
                errors += layer == "ratlin"
            else:
                value[name] = value.get(name, 0) + v
            if under_simplices[i] and name in ELIM:
                elim_under_simplices += 1
            if under_mns[i] and name == "ratlin.strict_separator":
                seps_under_mns += 1

        def count(*keys):
            return sum(calls.get(k, 0) for k in keys)

        def secs(table, *keys):
            return sum(table.get(k, 0) for k in keys) / 1e9

        def ratio(a, b):
            return a / b if b else 0.0

        lp_calls = count(*LP)
        simplices = value.get(ENUM_SIMPLICES, 0)
        elements = value.get(BUILD_LATTICE, 0)
        metrics = {
            "ratlin.lp_calls": lp_calls,
            "ratlin.lp_self_s": secs(self_ns, *LP),
            "ratlin.lp_no_ratio": ratio(sum(value.get(k, 0) for k in LP), lp_calls),
            "ratlin.elim_calls": count(*ELIM),
            "ratlin.elim_self_s": secs(self_ns, *ELIM),
            "ratlin.max_bits": self.max_bits,
            "ratlin.errors": errors,
            "spanset.calls": layer_calls["spanset"],
            "spanset.self_s": layer_self["spanset"] / 1e9,
            "spanset.is_pss_calls": count("spanset.is_pss"),
            "spanset.skeleton_self_s": secs(self_ns, "spanset.skeleton_contains"),
            "simplicial.enum_calls": count(ENUM_SIMPLICES),
            "simplicial.enum_self_s": secs(self_ns, ENUM_SIMPLICES),
            "simplicial.elim_per_simplex": ratio(elim_under_simplices, simplices),
            "simplicial.factorization_calls": count("simplicial.factorization_condition"),
            "simplicial.factorization_self_s": secs(self_ns, "simplicial.factorization_condition"),
            "simplicial.decomp_self_s": secs(
                self_ns, "simplicial.basis_decomposition", "simplicial.reay_partition"
            ),
            "latticemod.build_calls": count(BUILD_LATTICE),
            "latticemod.build_self_s": secs(self_ns, BUILD_LATTICE),
            "latticemod.us_per_element": ratio(self_ns.get(BUILD_LATTICE, 0) / 1e3, elements),
            "conical.mns_calls": count(ENUM_MNS),
            "conical.mns_self_s": secs(self_ns, ENUM_MNS),
            "conical.frame_yield": ratio(value.get(ENUM_MNS, 0), seps_under_mns),
            "conical.cover_self_s": secs(
                self_ns, "conical.cone_decomposition", "conical.max_disjoint_family"
            ),
            "gale.calls": layer_calls["gale"],
            "gale.self_s": layer_self["gale"] / 1e9,
            "suite.self_s": layer_self["suite"] / 1e9,
        }
        for fn, check in SUITE_CHECKS.items():
            metrics[f"suite.check_s.{check}"] = secs(incl_ns, f"suite.{fn}")
        metrics["cli.parse_s"] = secs(incl_ns, PARSE)
        metrics["cli.self_s"] = layer_self["cli"] / 1e9
        return metrics
