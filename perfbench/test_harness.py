"""Self-tests of the benchmark harness: python3 -m pytest perfbench -q"""

import json
import resource
import sys
import types

import numpy as np
import pytest

import sweep
import tracing
import workloads
from harness import SRC, run_child, tail


class ScriptedClock:
    """Returns the scripted readings in order, one per call."""

    def __init__(self, readings):
        self.readings = iter(readings)

    def __call__(self):
        return next(self.readings)


def test_self_time_on_nested_spans():
    # cli.main [0, 10] -> exhaustive_search [1, 8] -> encode_matrix [2, 3], [4, 6]
    tracer = tracing.Tracer(clock=ScriptedClock([0, 1, 2, 3, 4, 6, 8, 10]))
    encode = tracer.wrap(lambda: None, "exact.encode_matrix")

    def search_body():
        encode()
        encode()
        return types.SimpleNamespace(count=5)

    search = tracer.wrap(search_body, "search.exhaustive_search")
    main = tracer.wrap(search, "cli.main")
    main()
    out = tracing.summarize(tracer.spans, tracer.errors, tracer.counters)
    assert out["cli.main.calls"] == 1 and out["cli.main.s"] == 10
    assert out["cli.main.self_s"] == 10 - 7
    assert out["search.exhaustive_search.s"] == 7
    assert out["search.exhaustive_search.self_s"] == 7 - 1 - 2
    assert out["exact.encode_matrix.calls"] == 2 and out["exact.encode_matrix.s"] == 3
    assert out["search.hits"] == 5
    parents = [span[3] for span in tracer.spans]
    assert parents == [-1, 0, 1, 1]


def test_group_busy_time_counts_outermost_spans_only():
    # exact.design_mps [0, 5] calls exact.full_j_mps [1, 2]: both are builders.
    tracer = tracing.Tracer(clock=ScriptedClock([0, 1, 2, 5]))
    inner = tracer.wrap(lambda: None, "exact.full_j_mps")
    outer = tracer.wrap(inner, "exact.design_mps")
    outer()
    out = tracing.summarize(tracer.spans, tracer.errors, tracer.counters)
    assert out["exact.builders.calls"] == 2
    assert out["exact.builders.s"] == 5


def test_exception_leaving_a_wrapped_call_is_counted_and_reraised():
    tracer = tracing.Tracer()

    def boom():
        raise ValueError("no")

    with pytest.raises(ValueError):
        tracer.wrap(boom, "core.mps_profile")()
    out = tracing.summarize(tracer.spans, tracer.errors, tracer.counters)
    assert out["core.errors"] == 1 and out["core.mps_profile.calls"] == 1


def test_install_wraps_aliases_with_one_name():
    import importlib

    sys.path.insert(0, str(SRC))
    modules = [importlib.import_module(f"mpsmat.{layer}") for layer in tracing.LAYERS]
    saved = [(m, dict(vars(m))) for m in modules]
    from mpsmat import exact, search

    tracer = tracing.Tracer()
    try:
        installed = tracing.install(tracer)
        assert search.encode_matrix is exact.encode_matrix
        assert "exact.encode_matrix" in installed
        assert tracing.missing_members(installed) == []
        search.encode_matrix(search.np.zeros((2, 2), dtype=int))
        assert [s[0] for s in tracer.spans] == ["exact.encode_matrix"]
    finally:
        for module, attrs in saved:
            vars(module).update(attrs)


def _document(counts: dict) -> dict:
    return {"n": 8, "mode": "all",
            "results": [{"d": d, "count": c, "complete": True} for d, c in counts.items()]}


def test_wrong_expected_count_is_a_failure_not_a_crash():
    good = workloads.EXPECTED_COUNTS["enumerate"]
    assert workloads.check_document(_document(good), good, "all", False) == []
    wrong = {**good, "1/1": 215041}
    problems = workloads.check_document(_document(good), wrong, "all", False)
    assert len(problems) == 1 and "counts" in problems[0]
    assert workloads.check_document({"results": [{}]}, good, "all", False)
    output = json.dumps(_document(good)).encode()
    assert workloads.check_pass("enumerate", 0, output, set()) == []
    assert workloads.check_pass("enumerate", 0, b"not json", set())
    assert workloads.check_pass("enumerate", 2, output, set()) == ["exit code 2"]


def test_wrong_classify_count_is_counted_as_failed_ops():
    ops = [("classify", 2, 0)] * 3
    outputs = ["impossible", "impossible", "open"]
    failed, problems = sweep.check_pass(ops, outputs, None,
                                        {"impossible": 2, "open": 1})
    assert (failed, problems) == (0, [])
    failed, problems = sweep.check_pass(ops, outputs, None, {"impossible": 3})
    assert failed == 1 and problems


def test_round_trip_bound_is_absolute_and_per_order():
    ops, outputs = [], []
    for n in (30, 100):
        s = np.eye(n, dtype=complex)
        ops.append(("hermitian", n, s))
        outputs.append(s + 2e-9 / n)   # residual norm 2e-9
    failed, problems = sweep.check_pass(ops, outputs, None, {})
    assert failed == 1 and problems == ["hermitian n=30: round-trip residual 2.000e-09"]


def test_gram_check_catches_a_broken_matrix():
    row = ["3/2"] + ["1/1"] * 7
    bad = {"n": 8, "kind": "real-exact", "d": "3/1",
           "q_entries": [row] * 8}
    assert workloads.gram_failures(8, 3, [bad])


def test_peak_rss_is_taken_per_child():
    big = run_child([sys.executable, "-c", "x = bytearray(150 << 20); x[::4096] = b'1' * len(x[::4096])"])
    small = run_child([sys.executable, "-c", "pass"])
    assert big.code == 0 and small.code == 0
    assert big.peak_rss_mb >= 150
    assert small.peak_rss_mb < 100
    assert resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024 >= 150


def test_tail_is_the_highest_percentile_with_ten_beyond():
    values = list(range(1, 101))
    assert tail(values) == (90, 90.0, 10)
    assert tail(list(range(1, 22))) == (11, 100.0 * 11 / 21, 10)
    assert tail(list(range(20, 0, -1))) == (20, 100.0, 0)


def test_slow_decile_reads_the_slow_end_of_the_passes():
    from run import slow_decile

    walls = [float(x) for x in range(1, 11)]
    assert slow_decile(walls) == pytest.approx(9.1)
    assert slow_decile(walls, rate=True) == pytest.approx(1.9)
    assert slow_decile([4.0]) == 4.0
