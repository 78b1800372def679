"""Spans around the public functions of each modlie layer, recorded from outside.

`Tracer.install()` replaces every target function (and the methods named by
``Class.method``) with a wrapper that records one span per call: name id,
parent span, start and end.  Every module under ``modlie`` that bound the same
function object by ``from .x import f`` is rebound too, so calls through any
namespace are seen.  `uninstall()` puts every original back and `verify_restored()`
proves it, so untraced runs measure unpatched code.

Spans live in flat typed arrays (about 26 bytes each) and are written out by
`save()` at the end of a run; self times are computed from them afterwards.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import weakref
from array import array

import numpy as np

# (module, attribute path) of every wrapped callable; the span name is
# "<module>.<attribute path>".  A target missing from the program is skipped
# and reported, so the benchmark keeps running when a later change removes it.
TARGETS = [
    ("roots", "build_root_system"),
    ("chevalley", "build_chevalley"),
    ("expr", "to_ue"),
    ("pbw", "EnvelopingAlgebra.gen_into_mono"),
    ("pbw", "multiply"),
    ("redenv", "baby_verma"),
    ("redenv", "evaluate"),
    ("redenv", "invertible_in_rep"),
    ("redenv", "is_irreducible"),
    ("linalg", "rank_mod_p"),
    ("linalg", "kernel_mod_p"),
    ("linalg", "DenseEchelon.insert"),
    ("linalg", "SparseEchelon.insert"),
    ("leebasis", "solve_signs"),
    ("leebasis", "gen_Bi"),
    ("leebasis", "verify_independence_truncated"),
    ("leebasis", "verification_report"),
    ("cli", "run"),
]

OP = "op"  # root span of one benchmark op; its self time is "other"


class Tracer:
    def __init__(self):
        self.names: list[str] = [OP]
        self.name_ids = array("H")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        # counters measured at the wrapper, read as before/after deltas per op
        self.counters = {"pbw.gen_into_mono.repeats": 0, "linalg.rank_mod_p.cells": 0}
        self._seen = weakref.WeakKeyDictionary()  # algebra -> {(g, m)}
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- span recording ---------------------------------------------------

    def open_span(self, nid: int = 0) -> int:
        idx = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self.stack[-1])
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close_span(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        open_, close = self.open_span, self.close_span
        counters = self.counters

        if name == "pbw.EnvelopingAlgebra.gen_into_mono":
            seen_by_algebra = self._seen

            def wrapper(algebra, g, m, *args, **kwargs):
                seen = seen_by_algebra.get(algebra)
                if seen is None:
                    seen = seen_by_algebra[algebra] = set()
                key = (g, m)
                if key in seen:
                    counters["pbw.gen_into_mono.repeats"] += 1
                else:
                    seen.add(key)
                idx = open_(nid)
                try:
                    return fn(algebra, g, m, *args, **kwargs)
                finally:
                    close(idx)

        elif name == "linalg.rank_mod_p":

            def wrapper(A, *args, **kwargs):
                shape = np.shape(A)
                if len(shape) == 2:
                    counters["linalg.rank_mod_p.cells"] += int(shape[0]) * int(shape[1])
                idx = open_(nid)
                try:
                    return fn(A, *args, **kwargs)
                finally:
                    close(idx)

        else:

            def wrapper(*args, **kwargs):
                idx = open_(nid)
                try:
                    return fn(*args, **kwargs)
                finally:
                    close(idx)

        return functools.update_wrapper(wrapper, fn)

    # -- patching ---------------------------------------------------------

    def _modules(self):
        return [
            m
            for n, m in sorted(sys.modules.items())
            if m is not None and (n == "modlie" or n.startswith("modlie."))
        ]

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for modname, path in TARGETS:
            name = f"{modname}.{path}"
            try:
                mod = importlib.import_module(f"modlie.{modname}")
            except ImportError:
                self.missing.append(name)
                continue
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            if owner is None or attr not in vars(owner):
                self.missing.append(name)
                continue
            orig = vars(owner)[attr]
            wrapped = self._wrap(orig, name)
            self._patch(owner, attr, orig, wrapped)
            if not owner_name:
                # rebind every namespace that imported the function by name
                for other in self._modules():
                    if other is mod:
                        continue
                    for key, val in list(vars(other).items()):
                        if val is orig:
                            self._patch(other, key, orig, wrapped)

    def _patch(self, owner, attr: str, orig, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)

    def verify_restored(self) -> list[str]:
        """Names still bound to a wrapper; empty when every patch is undone."""
        return [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, orig in self._patches
            if vars(owner).get(attr) is not orig
        ]

    @property
    def patched_bindings(self) -> int:
        return len(self._patches)

    # -- results ----------------------------------------------------------

    def arrays(self):
        n = len(self.ends)
        return (
            np.frombuffer(self.name_ids, dtype=np.uint16, count=n).copy(),
            np.frombuffer(self.parents, dtype=np.int64, count=n).copy(),
            np.frombuffer(self.starts, dtype=np.float64, count=n).copy(),
            np.frombuffer(self.ends, dtype=np.float64, count=n).copy(),
        )

    def layer_totals(self, op_ranges: list[tuple[int, int]]):
        """Per span name: (calls, self seconds) summed over the given index ranges.

        Self time is a span's duration minus the durations of its direct
        children.  The op root span's self time is op time covered by no
        wrapped call.
        """
        names, parents, starts, ends = self.arrays()
        dur = ends - starts
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(dur))
        selfs = dur - child
        mask = np.zeros(len(dur), dtype=bool)
        for lo, hi in op_ranges:
            mask[lo:hi] = True
        k = len(self.names)
        calls = np.bincount(names[mask], minlength=k)
        self_s = np.bincount(names[mask], weights=selfs[mask], minlength=k)
        return {n: (int(calls[i]), float(self_s[i])) for i, n in enumerate(self.names)}

    def save(self, path) -> None:
        names, parents, starts, ends = self.arrays()
        np.savez(
            path,
            name=names,
            parent=parents,
            start=starts,
            end=ends,
            names=np.array(json.dumps(self.names)),
        )
