"""Spans around calls into the mpsmat layers, recorded from outside the package.

`install` replaces every module attribute of the layer modules that names a
public mpsmat function with a wrapper that records one span per call: name,
start, end, parent span and the op id current when the call began.  Aliases
(``search.encode_matrix`` is ``exact.encode_matrix``) share one wrapper, so a
span is named after the module that defines the function, however it was
reached.  Spans stay in memory until `write_spans`; `summarize` turns them
into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import types
from collections import Counter

LAYERS = ("cli", "search", "exact", "serialize", "classify", "families",
          "designs", "core", "parametrize")

#: Metric prefix -> the functions whose spans it aggregates.
GROUPS = {
    "exact.encode_matrix": ("exact.encode_matrix",),
    "search.exhaustive_search": ("search.exhaustive_search",),
    "search.canonical_transform": ("search.canonical_transform",),
    "serialize.matrix_to_obj": ("serialize.matrix_to_obj",),
    "serialize.matrix_from_obj": ("serialize.matrix_from_obj",),
    "cli.main": ("cli.main",),
    "classify.necessary_conditions": ("classify.necessary_conditions",),
    "families.builders": tuple(f"families.{f}" for f in (
        "full_j_matrix", "n2_matrix", "upper_interval", "hadamard_core_family",
        "conference_core_family", "complex_core_matrix",
        "conference_block_family", "design_family", "real_from_design")),
    "exact.builders": tuple(f"exact.{f}" for f in (
        "full_j_mps", "two_by_two_mps", "upper_interval_mps", "conference_mps",
        "conference_block_mps", "design_mps", "hadamard_to_mps")),
    "designs.providers": tuple(f"designs.{f}" for f in (
        "sylvester_hadamard", "paley_conference", "fourier_complex_hadamard",
        "identity_design", "hadamard_to_design")),
    "core.mps_profile": ("core.mps_profile",),
    "core.checks": tuple(f"core.{f}" for f in (
        "is_hermitian", "is_unitary", "check_d_bound", "check_trace_identity")),
    "parametrize.decompose": ("parametrize.decompose_hermitian_unitary",
                              "parametrize.decompose_unitary"),
    "parametrize.build": ("parametrize.build_hermitian_unitary",
                          "parametrize.build_unitary",
                          "parametrize.build_quadratic_solution"),
}

#: Groups that also report self time (busy time minus wrapped children).
SELF_TIME = ("search.exhaustive_search", "cli.main", "classify.necessary_conditions")

#: Counters read from return values at the layer boundary.
COUNTERS = ("search.hits", "classify.exists", "classify.impossible", "classify.open")

_CLASSIFY_STATUS = {"exists_with_witness": "classify.exists",
                    "impossible": "classify.impossible", "open": "classify.open"}


def _count_hits(counters: Counter, result) -> None:
    counters["search.hits"] += result.count


def _count_status(counters: Counter, verdict) -> None:
    counters[_CLASSIFY_STATUS[verdict.status]] += 1


_ON_RETURN = {"search.exhaustive_search": _count_hits,
              "classify.necessary_conditions": _count_status}


class Tracer:
    """In-memory span recorder.  Single-threaded: spans nest by call order."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []      # (name, start, end, parent index or -1, op)
        self.errors: Counter = Counter()
        self.counters: Counter = Counter()
        self.op = 0
        self._stack: list[int] = []

    def wrap(self, fn, name: str):
        layer = name.split(".", 1)[0]
        on_return = _ON_RETURN.get(name)
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (name, start, clock(), parent, self.op)
                stack.pop()
                self.errors[layer] += 1
                raise
            spans[idx] = (name, start, clock(), parent, self.op)
            stack.pop()
            if on_return is not None:
                on_return(self.counters, result)
            return result

        return traced


def install(tracer: Tracer) -> list[str]:
    """Wrap every public mpsmat function reachable as a layer-module attribute.

    Returns the span names installed.  Call after mpsmat is imported and
    before the work to be traced; nothing under mpsmat changes on disk.
    """
    wrapped: dict = {}
    names: list[str] = []
    for layer in LAYERS:
        module = importlib.import_module(f"mpsmat.{layer}")
        for attr, value in list(vars(module).items()):
            if (attr.startswith("_") or not isinstance(value, types.FunctionType)
                    or not value.__module__.startswith("mpsmat.")):
                continue
            if value not in wrapped:
                home = value.__module__.rsplit(".", 1)[-1]
                names.append(f"{home}.{value.__qualname__}")
                wrapped[value] = tracer.wrap(value, names[-1])
            setattr(module, attr, wrapped[value])
    return sorted(names)


def _aggregate(spans: list, names: set, by_name: dict,
               child_time: list) -> tuple[int, float, float]:
    """(calls, busy seconds, self seconds) over the spans named in ``names``.

    Busy time counts only the outermost spans of the group, so a group member
    calling another is not counted twice; self time subtracts every wrapped
    child span from each member span.
    """
    calls, busy, self_s = 0, 0.0, 0.0
    for idx in (i for name in names for i in by_name.get(name, ())):
        _name, start, end, parent, _op = spans[idx]
        calls += 1
        self_s += (end - start) - child_time[idx]
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            busy += end - start
    return calls, busy, self_s


def summarize(spans: list, errors: Counter, counters: Counter) -> dict:
    """Per-layer metrics from one traced run (see BENCHMARK.json ``per_layer``)."""
    child_time = [0.0] * len(spans)
    by_name: dict = {}
    for idx, (name, start, end, parent, _op) in enumerate(spans):
        by_name.setdefault(name, []).append(idx)
        if parent >= 0:
            child_time[parent] += end - start
    out: dict = {}
    for prefix, members in GROUPS.items():
        calls, busy, self_s = _aggregate(spans, set(members), by_name, child_time)
        out[f"{prefix}.calls"] = calls
        out[f"{prefix}.s"] = busy
        if prefix in SELF_TIME:
            out[f"{prefix}.self_s"] = self_s
    for key in COUNTERS:
        out[key] = counters[key]
    canon_calls = out["search.canonical_transform.calls"]
    out["search.classes_per_canonical_call"] = (
        out["search.hits"] / canon_calls if canon_calls else 0.0)
    for layer in LAYERS:
        out[f"{layer}.errors"] = errors[layer]
    return out


def missing_members(installed: list[str]) -> list[str]:
    """Group members that no installed wrapper covers (renamed or deleted)."""
    have = set(installed)
    return sorted(m for members in GROUPS.values() for m in members if m not in have)


def write_spans(path, spans: list) -> None:
    """One JSON array per line: name, start, end, parent index, op id."""
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span))
            fh.write("\n")
