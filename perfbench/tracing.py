"""Outside-in span tracing of sshnet's module functions.

``Tracer.install`` replaces named functions with timing wrappers in every
sshnet namespace that binds them.  Cross-module calls go through module
attributes (``ag.matmul``, ``vsem.project_regions``) and same-module calls
through module globals, so both reach the wrapper.  Spans stay in flat
in-memory arrays while the run lasts; ``save`` writes them once at the end.

A span holds its name, start, end, parent span and an operation id.  The
operation id advances whenever a span named as a boundary ends (one train
step, one image, one query batch, one loss evaluation), so every span can
be grouped by the operation it served.
"""
from __future__ import annotations

import contextlib
import functools
import sys
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self, boundaries=()):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.op = array("q")
        self.measured: dict[str, float] = {}
        self._stack: list[int] = []
        self._op = 0
        self._boundaries = {self.name_id(b) for b in boundaries}
        self._restore: list[tuple] = []
        self.missing: list[str] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, nid: int) -> int:
        i = len(self.start)
        self.end.append(0.0)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(nid)
        self.op.append(self._op)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()
        if self.name[i] in self._boundaries:
            self._op += 1

    def _wrap(self, spec: str, fn, measure):
        nid = self.name_id(spec)
        begin, finish = self.begin, self.finish

        if measure is None:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                i = begin(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    finish(i)
            return traced

        @functools.wraps(fn)
        def traced_measured(*args, **kwargs):
            i = begin(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                finish(i)
            self.measured[spec] = self.measured.get(spec, 0.0) + measure(args, out)
            return out
        return traced_measured

    def install(self, specs, measures=None) -> None:
        """Wrap each ``module.function`` or ``module.Class.method`` spec.

        A spec the package does not define is recorded in ``missing`` and
        its metrics read zero, so the benchmark outlives renamed code.
        """
        measures = measures or {}
        modules = {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
                   if name.startswith("sshnet.") and mod is not None}
        for spec in specs:
            mod_name, *owner_path, attr = spec.split(".")
            owner = modules.get(mod_name)
            for part in owner_path:
                owner = getattr(owner, part, None)
            orig = vars(owner).get(attr) if owner is not None else None
            if not callable(orig):
                self.missing.append(spec)
                continue
            wrapped = self._wrap(spec, orig, measures.get(spec))
            if owner_path:                        # a method: patch the class
                self._patch(owner, attr, orig, wrapped)
                continue
            for mod in modules.values():          # every binding of the function
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patch(mod, key, orig, wrapped)

    def _patch(self, owner, key, orig, wrapped) -> None:
        setattr(owner, key, wrapped)
        self._restore.append((owner, key, orig, wrapped))

    def uninstall(self) -> None:
        for owner, key, orig, _ in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    @contextlib.contextmanager
    def suspended(self):
        """Run the block on the original functions, recording nothing."""
        for owner, key, orig, _ in self._restore:
            setattr(owner, key, orig)
        try:
            yield
        finally:
            for owner, key, _, wrapped in self._restore:
                setattr(owner, key, wrapped)

    def arrays(self) -> dict[str, np.ndarray]:
        return {"start": np.array(self.start, dtype=np.float64),
                "end": np.array(self.end, dtype=np.float64),
                "parent": np.array(self.parent, dtype=np.int64),
                "name": np.array(self.name, dtype=np.int64),
                "op": np.array(self.op, dtype=np.int64)}

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the part its child spans
        cover; children of one parent never overlap in a single thread,
        so that part is the sum of their durations.
        """
        a = self.arrays()
        k = len(self.names)
        dur = a["end"] - a["start"]
        nested = a["parent"] >= 0
        child = np.bincount(a["parent"][nested], weights=dur[nested],
                            minlength=dur.size)
        calls = np.bincount(a["name"], minlength=k)
        incl = np.bincount(a["name"], weights=dur, minlength=k)
        own = np.bincount(a["name"], weights=dur - child, minlength=k)
        return {n: {"calls": int(calls[i]), "incl_s": float(incl[i]),
                    "self_s": float(own[i]), "measured": self.measured.get(n, 0.0)}
                for i, n in enumerate(self.names)}

    def save(self, path: Path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
