"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is taken from src/ next to this directory.
Workloads (see BENCHMARK.json and perfbench/README.md):

- enumerate, export, canonical: closed loop of ``python -m mpsmat.cli search``
  children, one at a time, never with --threads;
- sweep: in-process ops (classify, construct | verify, parametrization
  round-trips) in one worker child per pass.

Cycles of set-up probes and passes repeat until their measured time reaches
--seconds.  Outputs are checked after each pass, outside the timed region.
With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 there are no probes, untraced and traced passes alternate, and it
carries the per-layer metrics of the traced ones.
Exit status: 0 when every check passed, 1 when one failed (the result line is
still printed), 2 when the package sources are missing.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from statistics import median, quantiles

import workloads
from harness import SRC, WORK, machine_info, python_child, run_child, tail

WORKLOADS = ("enumerate", "export", "canonical", "sweep")
#: Set-up probes before each cycle of passes, so that the probes sample the
#: same stretches of the run as the passes do.
SETUP_PROBES_PER_CYCLE = 3
#: No pass starts later than this after the run began, so a run ends in 180 s.
LAST_START_S = 120.0
RUN_LIMIT_S = 170.0


def slow_decile(values: list[float], rate: bool = False) -> float:
    """A run's figure for a per-pass time: the upper decile over its passes.

    The host this was tuned on flips between a fast and a slow regime for
    minutes at a time.  Most runs catch the slow regime in at least one pass,
    so the upper decile repeats from run to run where the median flips with
    the regime.  For a rate, where lower is slower, the lower decile.
    """
    if len(values) == 1:
        return values[0]
    deciles = quantiles(values, n=10, method="inclusive")
    return deciles[0] if rate else deciles[-1]


@dataclass
class Pass:
    wall_s: float
    peak_rss_mb: float
    op_s: list
    attempted: int
    failed: int
    problems: list
    output_bytes: int
    summary: dict | None = None
    missing: list = field(default_factory=list)


def _remaining(started: float) -> float:
    return max(5.0, RUN_LIMIT_S - (time.monotonic() - started))


def measure_setup(workload: str, seed: int, started: float) -> list[float]:
    """Interpreter start to ready, in fresh children (see child.py probe)."""
    samples = []
    out = WORK / "probe.out"
    for _ in range(SETUP_PROBES_PER_CYCLE):
        run = run_child(python_child("child.py", "probe", workload, str(seed)), out,
                        _remaining(started))
        if run.code != 0:
            raise SystemExit(f"set-up probe failed with exit code {run.code}")
        samples.append(float(out.read_text()) - run.spawned)
    return samples


def search_pass(workload: str, traced: bool, started: float, verified: set) -> Pass:
    out_file = WORK / f"{workload}.out.json"
    stdout_path = WORK / f"{workload}.stdout"
    out_file.unlink(missing_ok=True)
    cli_args = workloads.search_argv(workload, str(out_file))
    summary_path = WORK / f"{workload}.summary.json"
    if traced:
        argv = python_child("child.py", "cli", str(summary_path),
                            str(WORK / f"spans-{workload}.jsonl"), *cli_args)
    else:
        argv = [sys.executable, "-m", "mpsmat.cli", *cli_args]
    run = run_child(argv, stdout_path, _remaining(started))
    target = out_file if "{out}" in workloads.SEARCH_ARGS[workload] else stdout_path
    output = target.read_bytes() if target.exists() else b""
    wall = run.wall_s
    trace_info: dict = {}
    if traced and run.code == 0:
        trace_info = json.loads(summary_path.read_text())
        wall -= trace_info["post_s"]   # summarizing and writing spans is not the pass
    problems = workloads.check_pass(workload, run.code, output, verified)
    return Pass(wall_s=wall, peak_rss_mb=run.peak_rss_mb, op_s=[wall], attempted=1,
                failed=1 if problems else 0, problems=problems,
                output_bytes=len(output), summary=trace_info.get("summary"),
                missing=trace_info.get("missing", []))


def sweep_pass(seed: int, traced: bool, started: float) -> Pass:
    result_path = WORK / "sweep.result.json"
    result_path.unlink(missing_ok=True)
    argv = python_child("child.py", "sweep", str(seed), "1" if traced else "0",
                        str(result_path), str(WORK / "spans-sweep.jsonl"))
    run = run_child(argv, None, _remaining(started))
    if run.code != 0 or not result_path.exists():
        return Pass(wall_s=run.wall_s, peak_rss_mb=run.peak_rss_mb, op_s=[run.wall_s],
                    attempted=1, failed=1, output_bytes=0,
                    problems=[f"sweep worker exit code {run.code}"])
    res = json.loads(result_path.read_text())
    return Pass(wall_s=res["wall_s"], peak_rss_mb=run.peak_rss_mb, op_s=res["op_s"],
                attempted=res["attempted"], failed=res["failed"],
                problems=res["problems"], output_bytes=res["output_bytes"],
                summary=res.get("summary"), missing=res.get("missing", []))


def run_passes(workload: str, seed: int, seconds: float, trace: bool,
               started: float) -> tuple[list[Pass], list[Pass], list[float]]:
    """Closed loop of cycles until their measured time reaches ``seconds``.

    A cycle is one untraced pass, then one traced pass when ``trace`` is set,
    or else set-up probes first.  Returns (untraced passes, traced passes,
    set-up samples).
    """
    plain: list[Pass] = []
    traced: list[Pass] = []
    setup: list[float] = []
    modes = (False, True) if trace else (False,)
    measured = 0.0
    cycles = 0
    verified: set = set()   # digests of search outputs already parsed in full
    while True:
        if not trace:
            probes = measure_setup(workload, seed, started)
            setup += probes
            measured += sum(probes)
        for mode in modes:
            if workload == "sweep":
                p = sweep_pass(seed, mode, started)
            else:
                p = search_pass(workload, mode, started, verified)
            (traced if mode else plain).append(p)
            measured += p.wall_s
        cycles += 1
        per_cycle = measured / cycles
        if (measured + per_cycle > seconds
                or time.monotonic() - started + per_cycle > LAST_START_S):
            return plain, traced, setup


def end_to_end(plain: list[Pass], setup: list[float]) -> tuple[dict, str]:
    ops = [s for p in plain for s in p.op_s]
    attempted = sum(p.attempted for p in plain)
    failed = sum(p.failed for p in plain)
    if all(len(p.op_s) > 20 for p in plain):
        # Per pass: pooling the passes would push the ten samples beyond into
        # one-off stalls of a shared machine.
        tails = [tail(p.op_s) for p in plain]
        tail_s = slow_decile([t[0] for t in tails])
        note = (f"op_tail_ms is p{tails[0][1]:.3f} of each pass's {len(plain[0].op_s)} "
                f"ops (10 beyond it), upper decile over {len(plain)} passes")
    else:
        tail_s, pct, beyond = tail(ops)
        note = (f"op_tail_ms is p{pct:.3f} of {len(ops)} op samples, {beyond} beyond it"
                + ("" if beyond else " (20 samples or fewer: the maximum)"))
    metrics = {
        "setup_s": (slow_decile(setup), "s"),
        "wall_s": (slow_decile([p.wall_s for p in plain]), "s"),
        "peak_rss_mb": (median([p.peak_rss_mb for p in plain]), "MB"),
        "ok_frac": ((attempted - failed) / attempted, "fraction"),
        "ops_per_s": (slow_decile([len(p.op_s) / p.wall_s for p in plain], rate=True), "1/s"),
        "op_p50_ms": (slow_decile([median(p.op_s) for p in plain]) * 1000, "ms"),
        "op_tail_ms": (tail_s * 1000, "ms"),
    }
    return metrics, note


def per_layer(plain: list[Pass], traced: list[Pass]) -> dict:
    summaries = [p.summary for p in traced if p.summary is not None]
    metrics = {}
    if summaries:
        for key in summaries[0]:
            unit = "s" if key.endswith("_s") or key.endswith(".s") else (
                "ratio" if key.endswith("_call") else "count")
            metrics[key] = (median([s[key] for s in summaries]), unit)
    metrics["cli.output_bytes"] = (median([p.output_bytes for p in traced]), "bytes")
    metrics["trace.overhead_s"] = (median([p.wall_s for p in traced])
                                   - median([p.wall_s for p in plain]), "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mpsmat" / "cli.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    started = time.monotonic()
    WORK.mkdir(exist_ok=True)
    machine = machine_info()
    plain, traced, setup = run_passes(args.workload, args.seed, args.seconds,
                                      bool(args.trace), started)
    passes = plain + traced
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    if args.trace:
        metrics, note = per_layer(plain, traced), f"{len(traced)} traced passes"
        missing = sorted({m for p in traced for m in p.missing})
        if missing:
            note += f"; functions not found for grouping: {missing}"
    else:
        metrics, note = end_to_end(plain, setup)
    for problem in [q for p in passes for q in p.problems][:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "pass_wall_s": [p.wall_s for p in plain],
              "traced_pass_wall_s": [p.wall_s for p in traced], "note": note,
              "machine": machine, **result}
    (WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2))
    print(json.dumps({"machine": machine}))
    print(f"{args.workload}: {len(plain)} passes, {len(traced)} traced; {note}")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
