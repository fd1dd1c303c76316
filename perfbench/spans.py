"""Spans around the calls into fusscat's layers, recorded from outside.

`Tracer.install` replaces each traced function with a wrapper in every
fusscat module that holds it, including names a caller module bound at
import (such as `fusscat.counting.rotate_right`), and `uninstall` puts
the originals back.  A wrapper records one span per call: its name,
parent span, start, end, busy time and the number of items it yielded.
A generator's span covers only the time spent inside it while it is
being iterated, not the consumer's work between items, so its busy time
is less than end - start.  Self time is busy time minus the busy time
of the span's children.

Spans stay in memory in flat arrays and are written out by `dump`.
"""

from __future__ import annotations

import csv
import gzip
import sys
from array import array
from time import perf_counter_ns

# (module, function) -> span name.  Right and left rotation share a name.
TRACED = {
    ("counting", "modular_fuss_catalan"): "counting.modular_fuss_catalan",
    ("counting", "count_minimal_brute"): "counting.count_minimal_brute",
    ("counting", "enumerate_classes"): "counting.enumerate_classes",
    ("dyck", "enumerate_tuples"): "dyck.enumerate_tuples",
    ("dyck", "to_dyck"): "dyck.to_dyck",
    ("dyck", "from_dyck"): "dyck.from_dyck",
    ("dyck", "signature"): "dyck.signature",
    ("dyck", "canonicalize"): "dyck.canonicalize",
    ("tree", "rotation_sites"): "tree.rotation_sites",
    ("tree", "rotate_right"): "tree.rotate",
    ("tree", "rotate_left"): "tree.rotate",
    ("tree", "enumerate_trees"): "tree.enumerate_trees",
    ("expr", "parse"): "expr.parse",
    ("expr", "unparse"): "expr.unparse",
    ("cli", "main"): "cli.main",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.busy = array("q")
        self.items = array("q")
        self._active = [-1]
        self._restore: list = []
        self.brute_found = 0     # minimal tuples returned by brute force
        self.parse_operands = 0  # leaves of the trees parse returned
        self.closure_states = 0  # trees in traced classes
        self.closure_new = 0     # trees reached by a rotation

    # -- recording -------------------------------------------------------

    def _open(self, nid: int) -> int:
        sid = len(self.name)
        self.name.append(nid)
        self.parent.append(self._active[-1])
        self.start.append(0)
        self.end.append(0)
        self.busy.append(0)
        self.items.append(0)
        return sid

    def _wrap(self, name: str, fn):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        tracer = self
        after = getattr(self, "_after_" + name.rsplit(".", 1)[1], None)

        def traced(*args, **kwargs):
            sid = tracer._open(nid)
            tracer._active.append(sid)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                tracer._active.pop()
                tracer.start[sid] = t0
                tracer.end[sid] = t1
                tracer.busy[sid] = t1 - t0
            if hasattr(result, "__next__"):
                return tracer._iterate(sid, result)
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _iterate(self, sid: int, iterator):
        """Re-yield `iterator`, charging the time inside it to span sid."""
        count = 0
        try:
            while True:
                self._active.append(sid)
                t0 = perf_counter_ns()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    t1 = perf_counter_ns()
                    self._active.pop()
                    self.busy[sid] += t1 - t0
                    self.end[sid] = t1
                count += 1
                yield item
        finally:
            self.items[sid] = count

    def _after_count_minimal_brute(self, result):
        self.brute_found += result

    def _after_parse(self, result):
        self.parse_operands += getattr(result, "leaf_count", 0)

    def _after_enumerate_classes(self, result):
        for report in result:
            if getattr(report, "traces", None) is not None:
                self.closure_states += report.size
                self.closure_new += report.size - 1

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function wherever a fusscat module holds it."""
        wrappers = {}
        for (module, attr), name in TRACED.items():
            fn = getattr(sys.modules.get("fusscat." + module), attr, None)
            if fn is not None:
                wrappers[id(fn)] = self._wrap(name, fn)
        for modname, module in list(sys.modules.items()):
            if modname != "fusscat" and not modname.startswith("fusscat."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._restore):
            setattr(module, attr, value)
        self._restore.clear()

    # -- reading ---------------------------------------------------------

    def totals(self):
        """Per span name: (calls, self ns, items); plus the busy time of
        top-level spans and the number of rotations made inside
        enumerate_classes."""
        n = len(self.name)
        child_busy = [0] * n
        for sid in range(n):
            p = self.parent[sid]
            if p >= 0:
                child_busy[p] += self.busy[sid]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        items = [0] * len(self.names)
        top_busy = 0
        rotations = 0
        rotate_id = self._name_ids.get("tree.rotate")
        classes_id = self._name_ids.get("counting.enumerate_classes")
        brute_id = self._name_ids.get("counting.count_minimal_brute")
        brute_tuples = 0
        tuples_id = self._name_ids.get("dyck.enumerate_tuples")
        for sid in range(n):
            nid = self.name[sid]
            calls[nid] += 1
            self_ns[nid] += self.busy[sid] - child_busy[sid]
            items[nid] += self.items[sid]
            p = self.parent[sid]
            if p < 0:
                top_busy += self.busy[sid]
            if nid == tuples_id and p >= 0 and self.name[p] == brute_id:
                brute_tuples += self.items[sid]
            if nid == rotate_id:
                while p >= 0 and self.name[p] != classes_id:
                    p = self.parent[p]
                rotations += p >= 0
        by_name = {name: (calls[i], self_ns[i], items[i])
                   for i, name in enumerate(self.names)}
        return by_name, top_busy, rotations, brute_tuples

    def dump(self, path: str) -> None:
        """Write every span as one CSV row, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1, newline="") as f:
            out = csv.writer(f)
            out.writerow(("id", "name", "parent", "start_ns", "end_ns",
                          "busy_ns", "items"))
            for sid in range(len(self.name)):
                out.writerow((sid, self.names[self.name[sid]],
                              self.parent[sid], self.start[sid],
                              self.end[sid], self.busy[sid],
                              self.items[sid]))
