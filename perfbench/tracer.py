"""Outside-in tracer: spans around calls into fanhodge's public functions.

The tracer rebinds module attributes; no file of the library changes.  Each
public function defined in a layer module is wrapped once and the wrapper is
bound under every name that refers to it, including re-imports such as
``fans.rank`` and ``delta_complex.rank`` next to ``linalg.rank``, so a call is
recorded whichever module it goes through.  Spans (name, start, end, parent
span, job id) stay in memory; ``write`` dumps them when the run ends.

Besides time, the wrapper records exact work counts at the same boundary:
``cells`` (rows x cols of the input matrix), ``max_bits`` (largest entry
bit-length of a Smith form's U, D and V) and ``cones_out`` (cones returned
by ``smooth_subdivide``).  Computing them is excluded from every self time.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
from array import array
from time import perf_counter

LAYERS = ("cli", "fans", "delta_complex", "linalg", "weight_ss", "mhs", "stairs",
          "corank_report", "fixtures")
METHODS = (("weight_ss", "StrataComplex", "gysin_block"),
           ("weight_ss", "StrataComplex", "stratum"),
           ("mhs", "PureHS", "h"))
CELLS = {"linalg.rank", "linalg.solve", "linalg.rational_kernel_basis",
         "linalg.smith_normal_form"}


def _max_bits(result) -> int:
    return max((abs(x).bit_length() for m in result for row in m.to_lists() for x in row),
               default=0)


class FunctionStats:
    __slots__ = ("calls", "total_s", "self_s", "cells", "max_bits", "cones_out")

    def __init__(self):
        self.calls, self.total_s, self.self_s = 0, 0.0, 0.0
        self.cells = self.max_bits = self.cones_out = 0


class Tracer:
    def __init__(self, package: str = "fanhodge"):
        self.package = package
        self.names: list[str] = []
        self.stats: dict[str, FunctionStats] = {}
        self.errors = {layer: 0 for layer in LAYERS}
        # span columns: name id, start, end, parent span (-1 = none), job id
        self.span_name, self.span_parent, self.span_job = array("i"), array("i"), array("i")
        self.span_start, self.span_end = array("d"), array("d")
        self.job = -1
        self._stack: list[int] = []  # open span indices
        self._child: list[float] = []  # per open span: time covered by children
        self._saved: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"{self.package}.{layer}") for layer in LAYERS}
        wrappers: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                home = obj.__module__.rpartition(".")[2]
                if not obj.__module__.startswith(self.package + ".") or home not in modules:
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(f"{home}.{obj.__name__}", home, obj)
                self._saved.append((mod, attr, obj))
                setattr(mod, attr, wrappers[id(obj)])
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[layer], cls_name)
            fn = cls.__dict__[meth]
            self._saved.append((cls, meth, fn))
            setattr(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", layer, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _wrap(self, name: str, layer: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        stats = self.stats.setdefault(name, FunctionStats())
        stack, child, errors = self._stack, self._child, self.errors
        names, parents, jobs = self.span_name, self.span_parent, self.span_job
        starts, ends = self.span_start, self.span_end
        cells = name in CELLS
        snf = name == "linalg.smith_normal_form"
        cones = name == "fans.smooth_subdivide"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            jobs.append(self.job)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            child.append(0.0)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception:
                errors[layer] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                covered = child.pop()
                starts[idx], ends[idx] = start, end
                stats.calls += 1
                stats.total_s += end - start
                stats.self_s += end - start - covered
                if result is not None and (cells or snf or cones):
                    if cells:
                        stats.cells += args[0].rows * args[0].cols
                    if snf:
                        stats.max_bits = max(stats.max_bits, _max_bits(result))
                    if cones:
                        stats.cones_out += len(result.cones)
                    end = perf_counter()  # the parent's self time excludes the hook
                if child:
                    child[-1] += end - start

        return wrapper

    # -- results ------------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, st in self.stats.items():
            out[name.split(".", 1)[0]] += st.self_s
        return out

    def snapshot(self) -> dict:
        """Counters as plain numbers, for comparing two passes exactly."""
        counts = {name: (st.calls, st.cells, st.max_bits, st.cones_out)
                  for name, st in self.stats.items()}
        return {"functions": counts, "errors": dict(self.errors)}

    def write(self, path) -> int:
        """Write all spans as gzip'd TSV (name, start, end, parent, job)."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\tjob\n")
            for i in range(len(self.span_name)):
                fh.write(f"{self.names[self.span_name[i]]}\t{self.span_start[i]:.9f}\t"
                         f"{self.span_end[i]:.9f}\t{self.span_parent[i]}\t{self.span_job[i]}\n")
        return len(self.span_name)
