"""Child processes of the benchmark.  Each runs from the checkout root with
PYTHONPATH pointing at src/.

    child.py probe WORKLOAD SEED
        Set up as a pass would (import mpsmat.cli; for the sweep also build
        the op list), then print time.monotonic().  The parent subtracts its
        spawn time, so the sample covers interpreter start too.
    child.py cli SUMMARY SPANS ARGS...
        Run cli.main(ARGS) with every layer traced.  The CLI's own output goes
        to stdout as usual; the span summary goes to SUMMARY, the spans to SPANS.
    child.py sweep SEED TRACE RESULT SPANS
        Run one sweep pass in process (traced when TRACE is 1), check it, and
        write timings, checks and the span summary to RESULT.
"""

from __future__ import annotations

import json
import sys
import time

import tracing
from harness import WORK


def _finish_trace(tracer: tracing.Tracer, installed: list[str], spans_path: str) -> dict:
    """Summary of a traced run; writes the spans.  Runs after the timed work."""
    began = time.monotonic()
    summary = tracing.summarize(tracer.spans, tracer.errors, tracer.counters)
    tracing.write_spans(spans_path, tracer.spans)
    return {"summary": summary, "missing": tracing.missing_members(installed),
            "spans": len(tracer.spans), "post_s": time.monotonic() - began}


def probe(workload: str, seed: int) -> int:
    import mpsmat.cli  # noqa: F401  (the import is what is measured)

    if workload == "sweep":
        import sweep

        sweep.build_ops(seed)
    print(repr(time.monotonic()))
    return 0


def traced_cli(summary_path: str, spans_path: str, argv: list[str]) -> int:
    from mpsmat import cli

    tracer = tracing.Tracer()
    installed = tracing.install(tracer)
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    sys.stdout.flush()
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(_finish_trace(tracer, installed, spans_path), fh)
    return code if isinstance(code, int) else 1


def sweep_pass(seed: int, trace: bool, result_path: str, spans_path: str) -> int:
    import mpsmat.cli  # noqa: F401  (set-up, as the probe measures it)
    import sweep

    ops = sweep.build_ops(seed)
    ready = time.monotonic()
    tracer = installed = None
    if trace:
        tracer = tracing.Tracer()
        installed = tracing.install(tracer)
    workdir = WORK / "sweep"
    done = sweep.run_pass(ops, workdir, tracer)
    failed, problems = sweep.check_pass(ops, done["outputs"], workdir)
    result = {
        "ready": ready,
        "wall_s": done["wall_s"],
        "op_s": done["op_s"],
        "attempted": len(ops),
        "failed": failed,
        "problems": problems[:20],
        "output_bytes": sweep.output_bytes(ops, workdir),
    }
    if tracer is not None:
        result.update(_finish_trace(tracer, installed, spans_path))
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "probe":
        return probe(rest[0], int(rest[1]))
    if mode == "cli":
        return traced_cli(rest[0], rest[1], rest[2:])
    if mode == "sweep":
        return sweep_pass(int(rest[0]), rest[1] == "1", rest[2], rest[3])
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 64


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
