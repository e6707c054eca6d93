"""Span recorder that times qinv's layers from outside the package.

Public functions of the five qinv modules are replaced, at module-attribute
level, by wrappers that record one span each: (name, start, end, parent).
Every binding of the same function object across the qinv modules is
replaced, so a function imported by name elsewhere (``qinv.invariants`` uses
``partial_trace`` from ``qinv.state``) is traced under its defining module.
Dataclass validation is traced by wrapping ``__post_init__`` on the class.

Spans live in flat arrays while the run lasts and are written out once, at
the end. Nothing under ``src/`` is edited; ``uninstall`` restores the
original attributes exactly.
"""
from __future__ import annotations

import importlib
import json
import time
from array import array

MODULES = ("cli", "state", "pauli", "invariants", "orbit")
# Span-name prefixes that self time is reported for: the five modules, plus
# ``import`` for the package import the traced CLI records.
LAYERS = MODULES + ("import",)

# Functions wrapped per module. ``_apply_2x2`` is private, but it is the
# kernel behind expectation, bilinear, apply_local and the fingerprint; without
# it the kernel time would be charged to whichever module called it.
TARGETS = {
    "cli": ("main", "cmd_compute", "cmd_verify", "cmd_compare", "cmd_random",
            "load_state", "dumps_state", "write_state", "report_to_json_dict",
            "print_report_text"),
    "state": ("new_state", "conjugate", "partial_trace", "purity", "trace_power",
              "cross_term", "PureState.__post_init__",
              "DensityMatrix.__post_init__"),
    "pauli": ("apply_single_qubit", "apply_string", "expectation", "bilinear",
              "adjoint_rotation", "_apply_2x2"),
    "invariants": ("single_qubit_invariant", "single_qubit_invariant_dm",
                   "pair_invariant", "pair_identity_residual", "concurrence",
                   "odd_tangle", "triple_correlation_sum", "cubic_invariant",
                   "pair_tangle", "three_tangle", "three_qubit_suite",
                   "first_kind_fingerprint", "invariant_report"),
    "orbit": ("random_state", "random_lu", "random_sl", "apply_local",
              "verify_invariance", "applicable_invariants",
              "LocalOperator.__post_init__"),
}

ROOT_SPAN = "op"


class Recorder:
    """In-memory span store plus the attribute patches that feed it."""

    def __init__(self) -> None:
        self.names: list[str] = [ROOT_SPAN]
        self._name_ids = {ROOT_SPAN: 0}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self._stack: list[int] = []
        self._plan: list[tuple[object, str, object, object]] | None = None
        self._installed = False
        self.missing: list[str] = []

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        idx = self._open(self._intern(name))
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def _wrapper(self, name: str, fn):
        nid = self._intern(name)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Put the wrappers in place; targets that no longer exist are listed in
        ``missing``. The patch plan is built once, so later installs are cheap."""
        if self._installed:
            raise RuntimeError("recorder is already installed")
        if self._plan is None:
            self._plan = self._build_plan()
        for owner, attr, _, wrapped in self._plan:
            setattr(owner, attr, wrapped)
        self._installed = True

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._plan or []):
            setattr(owner, attr, original)
        self._installed = False

    def _build_plan(self) -> list[tuple[object, str, object, object]]:
        mods = [importlib.import_module("qinv")]
        mods += [importlib.import_module(f"qinv.{m}") for m in MODULES]
        plan = []
        for short, names in TARGETS.items():
            home = importlib.import_module(f"qinv.{short}")
            for target in names:
                owner_name, _, attr = target.rpartition(".")
                owner = getattr(home, owner_name, None) if owner_name else home
                fn = getattr(owner, attr, None) if owner is not None else None
                if fn is None:
                    self.missing.append(f"{short}.{target}")
                    continue
                wrapped = self._wrapper(f"{short}.{owner_name or attr}", fn)
                if owner_name:
                    plan.append((owner, attr, fn, wrapped))
                    continue
                for mod in mods:
                    plan += [(mod, key, fn, wrapped)
                             for key, value in vars(mod).items() if value is fn]
        return plan

    def spans(self):
        for k in range(len(self.start)):
            yield (self.names[self.name_id[k]], self.start[k], self.end[k],
                   self.parent[k])

    def dump(self, path: str) -> None:
        """Write one JSON array [name, start, end, parent] per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans():
                fh.write(json.dumps(span) + "\n")


def self_times(spans) -> dict[str, float]:
    """Self time per span name: duration minus the time its children cover.

    ``spans`` are (name, start, end, parent) with parents listed before their
    children, as a single-threaded recorder produces them.
    """
    spans = list(spans)
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = {}
    for k, (name, start, end, _) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - child_time[k]
    return out


def module_self_times(spans) -> dict[str, float]:
    """Self time summed per layer prefix; spans of other names are left out."""
    out = {m: 0.0 for m in LAYERS}
    for name, value in self_times(spans).items():
        module = name.split(".", 1)[0]
        if module in out and "." in name:
            out[module] += value
    return out


def load_spans(path: str):
    with open(path, encoding="utf-8") as fh:
        return [tuple(json.loads(line)) for line in fh]
