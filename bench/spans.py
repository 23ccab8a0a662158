"""Spans around rankloss's public functions, installed from outside the package.

`Tracer.install` replaces every public function of the eight modules, at
every name it is imported under (`rankloss.tim.rank` as well as
`rankloss.exactla.rank`), with a wrapper that records a span: name, start,
end, parent span, job id, success, and for `exactla.rank` the matrix cells
it eliminates.  Spans stay in memory in flat arrays until `write`.  The
code is single-threaded, so spans nest and a span's self time is its
duration minus that of its direct children.  Times come from the clock the
tracer is given (the benchmark's, which leaves out its speed probes).
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time
from array import array
from collections import defaultdict

MODULES = ("exactla", "conditions", "randrank", "matroid", "matching", "tim", "fileio", "cli")

# Methods that carry a layer's cost but are not module-level functions.
METHODS = {
    "conditions.Ensemble": ("conditions", "Ensemble", "__init__"),
    "matroid.rank": ("matroid", "RankOracleMatroid", "rank"),
}

# Input-size work recorded per call: the cells of the matrix being ranked.
WORK = {"exactla.rank": lambda m: m.n_rows * m.n_cols}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.work = array("q")
        self.ok = array("b")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.job_id = -1
        self.enabled = True

    def install(self, package) -> None:
        """Wrap the public functions of `package`'s modules wherever they are bound."""
        modules = [getattr(package, name) for name in MODULES]
        wrappers = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[1]
            for name, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_"):
                    span = f"{short}.{name}"
                    wrappers[obj] = self._wrap(obj, span, WORK.get(span))
        for module in [package, *modules]:
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, name, wrappers[obj])
        for span, (module, cls, method) in METHODS.items():
            owner = getattr(getattr(package, module), cls)
            setattr(owner, method, self._wrap(getattr(owner, method), span, None))

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, span: str, work):
        nid = self._name_id(span)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer._open(nid, work(*args) if work else 0)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                tracer._close(idx, ok)

        return traced

    def _open(self, nid: int, work: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self.job_id)
        self.work.append(work)
        self.ok.append(1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def _close(self, idx: int, ok: bool) -> None:
        self.end[idx] = self.clock()
        self.ok[idx] = ok
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, such as the root of a job."""
        idx = self._open(self._name_id(name), 0)
        ok = False
        try:
            yield
            ok = True
        finally:
            self._close(idx, ok)

    @contextlib.contextmanager
    def suspended(self):
        """Calls made inside are not recorded (the benchmark's own checks)."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, self seconds, failed calls, work, and parents by calls.

        Self seconds are also split by job id under "self_s_by_job".
        """
        count = len(self.start)
        child = [0.0] * count
        for i in range(count):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, dict] = {}
        for i in range(count):
            name = self.names[self.name_id[i]]
            row = out.get(name)
            if row is None:
                row = out[name] = {
                    "calls": 0,
                    "self_s": 0.0,
                    "errors": 0,
                    "work": 0,
                    "parents": defaultdict(int),
                    "self_s_by_job": defaultdict(float),
                }
            own = self.end[i] - self.start[i] - child[i]
            row["calls"] += 1
            row["self_s"] += own
            row["errors"] += not self.ok[i]
            row["work"] += self.work[i]
            p = self.parent[i]
            row["parents"][self.names[self.name_id[p]] if p >= 0 else None] += 1
            row["self_s_by_job"][self.job[i]] += own
        return out

    def write(self, path) -> None:
        """Write every span as columns: name table, then one array per field."""
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "fields": ["name_id", "start", "end", "parent", "job", "ok", "work"],
                    "name_id": self.name_id.tolist(),
                    "start": self.start.tolist(),
                    "end": self.end.tolist(),
                    "parent": self.parent.tolist(),
                    "job": self.job.tolist(),
                    "ok": self.ok.tolist(),
                    "work": self.work.tolist(),
                },
                fh,
            )
