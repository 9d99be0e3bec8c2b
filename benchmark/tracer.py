"""Span tracer and field-operation counter for the traced benchmark run.

Nothing under ``src/`` is changed.  ``Tracer.install`` replaces every public
function of the traced ``leibnizalg`` modules, and the public methods of
``LeibnizAlgebra`` and ``Subspace``, by a wrapper that records a span: its
name, start, end, parent span and operation id.  The wrapper is bound in
every ``leibnizalg`` namespace that binds the original (``enumerate_spaces``
is imported into five modules) and in module-level dicts such as
``enumeration._ITERATORS``.  ``uninstall`` puts the original objects back.

Spans are kept in memory in flat arrays and summarised, per name and per
operation, when the run ends.  A span's self time is its duration minus
the part covered by its child spans.  Generator functions get one span per
resumption, so the work a generator does for its consumer is charged to
the generator; ``echelon_bases`` yields once per subspace and is only
counted.

Field arithmetic is far too fine-grained for spans: ``FieldCounter``
counts calls to the scalar methods of the three field classes in a pass of
its own.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter

TRACED_MODULES = ("linalg", "core", "enumeration", "series", "decompose",
                  "aalgebra", "poly", "cyclic", "algfile", "cli")
TRACED_CLASSES = (("core", "LeibnizAlgebra"), ("linalg", "Subspace"))
COUNT_ONLY = frozenset({"enumeration.echelon_bases"})
FIELD_CLASSES = ("PrimeField", "ExtensionField", "Rationals")
FIELD_METHODS = ("add", "sub", "mul", "neg", "inv", "div", "is_zero")


def _certificate(counts, verdict):
    counts["aalgebra.certificate." + (verdict.certificate or "unknown")] += 1


RESULT_HOOKS = {"aalgebra.is_a_algebra": _certificate}


def package_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "leibnizalg" or n.startswith("leibnizalg."))]


class _Patches:
    """Attribute and dict-entry replacements that can be undone in reverse."""

    def __init__(self):
        self._undo = []

    def setattr(self, obj, name, value):
        self._undo.append((setattr, obj, name, getattr(obj, name)))
        setattr(obj, name, value)

    def setitem(self, mapping, key, value):
        self._undo.append((type(mapping).__setitem__, mapping, key, mapping[key]))
        mapping[key] = value

    def undo(self):
        while self._undo:
            put, obj, key, original = self._undo.pop()
            put(obj, key, original)


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = Counter()
        self.current_op = -1
        self._stack = []
        self._patches = _Patches()

    # -- recording ----------------------------------------------------------
    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        nid = self._id(name)
        counts = self.counts
        if inspect.isgeneratorfunction(fn):
            yields = name + ".yields"
            if name in COUNT_ONLY:
                def counted(*args, **kwargs):
                    for item in fn(*args, **kwargs):
                        counts[yields] += 1
                        yield item
                return functools.wraps(fn)(counted)

            def resumed(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    idx = self._open(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(idx)
                    counts[yields] += 1
                    yield item
            return functools.wraps(fn)(resumed)

        hook = RESULT_HOOKS.get(name)

        def call(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hook(counts, result)
            return result
        return functools.wraps(fn)(call)

    # -- patching -----------------------------------------------------------
    def install(self) -> None:
        wrappers = {}  # id(original) -> (original, wrapper)
        for short in TRACED_MODULES:
            mod = sys.modules.get("leibnizalg." + short)
            if mod is None:
                continue
            for name, value in vars(mod).items():
                if (inspect.isfunction(value) and not name.startswith("_")
                        and value.__module__ == mod.__name__):
                    wrappers[id(value)] = (value, self.wrap(f"{short}.{name}", value))

        def replacement(value):
            hit = wrappers.get(id(value))
            return hit[1] if hit is not None and hit[0] is value else None

        for mod in package_modules():
            for name, value in list(vars(mod).items()):
                if name.startswith("__"):
                    continue
                new = replacement(value)
                if new is not None:
                    self._patches.setattr(mod, name, new)
                elif isinstance(value, dict):
                    for key, entry in list(value.items()):
                        new = replacement(entry)
                        if new is not None:
                            self._patches.setitem(value, key, new)
        for short, cls_name in TRACED_CLASSES:
            cls = getattr(sys.modules["leibnizalg." + short], cls_name)
            for name, value in list(vars(cls).items()):
                if inspect.isfunction(value) and not name.startswith("_"):
                    self._patches.setattr(cls, name, self.wrap(f"{short}.{name}", value))

    def uninstall(self) -> None:
        self._patches.undo()

    # -- results ------------------------------------------------------------
    def summary(self) -> dict:
        """Self time and span count per name, in total and per operation id,
        plus the counts."""
        self_s, calls = self_times(self.names, self.name_id, self.start, self.end,
                                   self.parent, self.op)
        out = {"self_s": {}, "calls": {}, "counts": dict(self.counts), "by_op": {}}
        for (op, name), value in self_s.items():
            out["self_s"][name] = out["self_s"].get(name, 0.0) + value
            out["calls"][name] = out["calls"].get(name, 0) + calls[op, name]
            out["by_op"].setdefault(op, {})[name] = value
        return out


def self_times(names, name_id, start, end, parent, op):
    """Self time and span count per (operation id, name).

    Span i is named ``names[name_id[i]]``, ran from ``start[i]`` to
    ``end[i]`` and was opened inside span ``parent[i]`` (-1 for none).
    Children of one span run one after another, so the part of a span they
    cover is the sum of their durations.
    """
    covered = array("d", bytes(8 * len(start)))
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += end[i] - start[i]
    self_s, calls = {}, {}
    for key, s, e, c in zip(zip(op, name_id), start, end, covered):
        self_s[key] = self_s.get(key, 0.0) + (e - s - c)
        calls[key] = calls.get(key, 0) + 1
    return ({(o, names[n]): v for (o, n), v in self_s.items()},
            {(o, names[n]): v for (o, n), v in calls.items()})


def merge_summaries(summaries) -> dict:
    """Sum summaries, such as those written by traced CLI children."""
    out = {"self_s": Counter(), "calls": Counter(), "counts": Counter()}
    startup_s = 0.0
    for s in summaries:
        for part in out:
            out[part].update(s.get(part, {}))
        startup_s += s.get("startup_s", 0.0)
    merged = {part: dict(values) for part, values in out.items()}
    merged["startup_s"] = startup_s
    return merged


class FieldCounter:
    """Counts calls to the scalar methods of the field classes."""

    def __init__(self):
        self.counts = Counter()
        self._patches = _Patches()

    def install(self) -> None:
        fields = sys.modules["leibnizalg.fields"]
        counts = self.counts
        for cls_name in FIELD_CLASSES:
            cls = getattr(fields, cls_name)
            for method in FIELD_METHODS:
                original = vars(cls)[method]
                key = f"{cls_name}.{method}"

                def counted(*args, _fn=original, _key=key):
                    counts[_key] += 1
                    return _fn(*args)
                self._patches.setattr(cls, method, functools.wraps(original)(counted))

    def uninstall(self) -> None:
        self._patches.undo()
