"""Spans around the package's layer boundaries, recorded from outside ``src/``.

``Tracer.install`` replaces each layer's function or method with a wrapper
that records a span (name, start, end, parent, request) while the tracer is
active, and ``uninstall`` puts the originals back.  A layer whose module or
attribute no longer exists is reported as absent instead of failing the run.
Spans are kept in flat arrays and reduced only when the run ends.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

import numpy as np

# (layer name, module, attribute path)
LAYERS = (
    ("experiments.run_trial", "torusgaps.experiments", "run_trial"),
    ("tournament.survivors_sweep", "torusgaps.tournament", "survivors_sweep"),
    ("tournament.survivors_brute", "torusgaps.tournament", "survivors_brute"),
    ("tournament.build_edges", "torusgaps.tournament", "build_edges"),
    ("denominators.approximation_profile", "torusgaps.denominators", "approximation_profile"),
    ("numerics.group_indices", "torusgaps.numerics", "group_indices"),
    ("circle.geodesic", "torusgaps.circle", "geodesic"),
    ("coverage.float_query", "torusgaps.tournament", "_FloatCoverage.query"),
    ("coverage.float_insert", "torusgaps.tournament", "_FloatCoverage.insert_many"),
    ("coverage.exact_overlaps", "torusgaps.coverage", "ArcCoverage.overlaps"),
    ("coverage.exact_insert", "torusgaps.coverage", "ArcCoverage.insert"),
)
REQUEST = "request"


def _n_arg(args, kwargs) -> int:
    return kwargs["n"] if "n" in kwargs else args[1]


def _resolve(module_name: str, path: str):
    """(owner, attribute, original), or None when the layer is absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, attr = path.split(".")
    for name in owners:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    original = getattr(owner, attr, None)
    return None if original is None else (owner, attr, original)


class Tracer:
    def __init__(self) -> None:
        self.names = [REQUEST]
        self.name = array("i")
        self.parent = array("i")
        self.root = array("i")
        self.start = array("d")
        self.end = array("d")
        self.active = False
        self.absent: list[str] = []
        self.sweeps: list[tuple[list, int, float]] = []  # (alphas, n, longest survivor)
        self.edges_judged = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _open(self, name_id: int) -> int:
        sid = len(self.start)
        stack = self._stack
        self.name.append(name_id)
        self.parent.append(stack[-1] if stack else -1)
        self.root.append(stack[0] if stack else sid)
        self.end.append(0.0)
        stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def request(self, fn, *args):
        """Run one request under a root span; its spans share the root's id."""
        self.active = True
        sid = self._open(0)
        try:
            return fn(*args)
        finally:
            self._close(sid)
            self.active = False

    def _wrap(self, name: str, fn, on_return=None):
        name_id = len(self.names)
        self.names.append(name)

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            sid = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return traced

    def _on_sweep(self, args, kwargs, report) -> None:
        n = _n_arg(args, kwargs)
        self.edges_judged += n * (n - 1) // 2
        self.sweeps.append((list(args[0]), n, max(report.distinct_lengths)))

    def _on_brute(self, args, kwargs, report) -> None:
        n = _n_arg(args, kwargs)
        self.edges_judged += n * (n - 1) // 2

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        hooks = {"tournament.survivors_sweep": self._on_sweep,
                 "tournament.survivors_brute": self._on_brute}
        for name, module_name, path in LAYERS:
            found = _resolve(module_name, path)
            if found is None:
                self.absent.append(name)
                continue
            owner, attr, original = found
            wrapper = self._wrap(name, original, hooks.get(name))
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            # A function is also bound by name in every module that imported
            # it with ``from ... import``; patch each of those references.
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "torusgaps":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reduction --------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds (its own
        time minus the time covered by its child spans)."""
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=dur - child, minlength=k)
        return {nm: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(own[i])}
                for i, nm in enumerate(self.names)}

    def dead_edges(self, epsilon: float) -> tuple[int, int]:
        """(edges longer than the longest survivor, edges judged) over the
        recorded sweeps.  No such edge can survive, so an engine that stops
        early could skip them."""
        dead = judged = 0
        for alphas, n, longest in self.sweeps:
            a = np.array([float(x) for x in alphas])
            f = np.mod(np.arange(1, n)[:, None] * a[None, :], 1.0)
            lengths = np.sqrt((np.minimum(f, 1.0 - f) ** 2).sum(axis=1))
            q = np.arange(1, n)
            dead += int((n - q)[lengths > longest + epsilon].sum())
            judged += n * (n - 1) // 2
        return dead, judged

    @property
    def spans(self) -> int:
        return len(self.start)
