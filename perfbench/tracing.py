"""Spans around the public functions of padicref's layers.

A ``Tracer`` replaces each traced function by a wrapper at every name a
caller can resolve it through: the attribute of its home module, every
``from .x import f`` copy in another padicref module, class aliases such
as ``__rmul__ = __mul__``, and the suite functions held in
``padicref.cli.CATALOG``.  Patching only the home module would leave
callers that imported the name earlier on the untraced original.

Each call records one span (name, start, end, parent) in flat arrays kept
in memory; nothing is aggregated or written while the workload runs.
``summary`` derives per-name calls, inclusive time and self time, where
self time is the span's duration minus the time covered by its child
spans.  ``write`` dumps the raw spans as text once the workload is done.
"""

from __future__ import annotations

import sys
import time
from array import array


# (metric name, module, attribute, outcome) for plain functions.  The
# outcome, when given, classifies a result as useful; its count gives the
# ratio metrics.
FUNCTIONS = [
    ("padiclin.bruhat_cell_valuations", "padicref.padiclin",
     "bruhat_cell_valuations", None),
    ("padiclin.iwahori_bruhat_decompose", "padicref.padiclin",
     "iwahori_bruhat_decompose", None),
    ("padiclin.open_cell_factorize", "padicref.padiclin",
     "open_cell_factorize", lambda r: r is not None),
    ("padiclin.lu_unit_lower", "padicref.padiclin", "lu_unit_lower", None),
    ("princhecke.ps_evaluate_rows", "padicref.princhecke",
     "ps_evaluate_rows", lambda r: not r.is_zero()),
    ("princhecke.hecke_apply", "padicref.princhecke", "hecke_apply", None),
    ("shalikazeta.ag_intertwine_value", "padicref.shalikazeta",
     "ag_intertwine_value", None),
    ("shalikazeta.zeta_iwahori_oracle", "padicref.shalikazeta",
     "zeta_iwahori_oracle", None),
    ("shalikazeta.zeta_parahoric_oracle", "padicref.shalikazeta",
     "zeta_parahoric_oracle", None),
    ("branchfam.v_lambda_j", "padicref.branchfam", "v_lambda_j", None),
    ("branchfam.kappa_family", "padicref.branchfam", "kappa_family", None),
]

# (metric name, module, class, attribute) for L0 arithmetic.
METHODS = [
    ("symring.SymElem.mul", "padicref.symring", "SymElem", "__mul__"),
    ("symring.SymElem.add", "padicref.symring", "SymElem", "__add__"),
    ("symring.SymElem.rational", "padicref.symring", "SymElem", "rational"),
    ("symring.CycNum.mul", "padicref.symring", "CycNum", "__mul__"),
    ("famring.FamSeries.mul", "padicref.famring", "FamSeries", "__mul__"),
]


class Tracer:
    def __init__(self):
        self.names = []
        self.starts = array("d")
        self.ends = array("d")
        self.name_ids = array("i")
        self.parents = array("i")
        self.positive = {}
        self._stack = []

    def _wrap(self, name, fn, outcome=None):
        nid = len(self.names)
        self.names.append(name)
        self.positive[name] = 0
        starts, ends, name_ids, parents = (self.starts, self.ends,
                                           self.name_ids, self.parents)
        stack, positive, clock = self._stack, self.positive, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            parents.append(stack[-1] if stack else -1)
            name_ids.append(nid)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if outcome is not None and outcome(result):
                positive[name] += 1
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Patch every traced function at every name that resolves to it."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "padicref" or k.startswith("padicref."))]
        for name, modname, attr, outcome in FUNCTIONS:
            orig = getattr(sys.modules[modname], attr)
            wrapped = self._wrap(name, orig, outcome)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
        for name, modname, clsname, attr in METHODS:
            cls = getattr(sys.modules[modname], clsname)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__))
            else:
                wrapped = self._wrap(name, raw)
            for key, value in list(vars(cls).items()):
                if value is raw:
                    setattr(cls, key, wrapped)
        cli = sys.modules["padicref.cli"]
        for suite, entry in sorted(cli.CATALOG.items()):
            orig = entry["fn"]
            wrapped = self._wrap(f"cli.suite.{suite}", orig)
            entry["fn"] = wrapped
            for key, value in list(vars(cli).items()):
                if value is orig:
                    setattr(cli, key, wrapped)

    def summary(self) -> dict:
        """{name: {calls, total_s, self_s, positive}} for every traced name."""
        count = len(self.starts)
        child = [0.0] * count
        starts, ends, parents = self.starts, self.ends, self.parents
        for i in range(count):
            parent = parents[i]
            if parent >= 0:
                child[parent] += ends[i] - starts[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                      "positive": self.positive[name]} for name in self.names}
        for i in range(count):
            row = out[self.names[self.name_ids[i]]]
            duration = ends[i] - starts[i]
            row["calls"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - child[i]
        return out

    def write(self, path):
        """Raw spans, one per line in call order: the parent's index (-1
        at top level), the index into the names line, and start and end
        in nanoseconds from the first span."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("# names: " + ",".join(self.names) + "\n")
            handle.write("# parent\tname\tstart_ns\tend_ns\n")
            t0 = self.starts[0] if len(self.starts) else 0.0
            for i in range(len(self.starts)):
                handle.write(f"{self.parents[i]}\t{self.name_ids[i]}\t"
                             f"{round((self.starts[i] - t0) * 1e9)}\t"
                             f"{round((self.ends[i] - t0) * 1e9)}\n")
