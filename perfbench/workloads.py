"""The three search workloads and the output checks for them.

Each pass is one ``python -m mpsmat.cli search`` child, run closed loop: the
next starts when the previous exits.  No pass passes ``--threads``.  The
checks parse the CLI's JSON with the standard library and re-verify the
exact Gram identity (2Q)(2Q)^T = (4d^2 + 4n - 4) I with numpy, so they share
no code with the package they check.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

import numpy as np

#: CLI arguments per workload; "{out}" is replaced with the output file path.
SEARCH_ARGS = {
    "enumerate": ["search", "--n", "8", "--count-only"],
    "export": ["search", "--n", "8", "--d", "3", "--out", "{out}"],
    "canonical": ["search", "--n", "8", "--canonical"],
}

_RATIOS = ["0/1", "1/2", "1/1", "3/2", "2/1", "5/2", "3/1"]
EXPECTED_COUNTS = {
    "enumerate": {**dict.fromkeys(_RATIOS, 0), "1/1": 215040, "3/1": 9216},
    "export": {"3/1": 9216},
    "canonical": {**dict.fromkeys(_RATIOS, 0), "1/1": 1, "3/1": 2},
}
EXPECTED_MODE = {"enumerate": "all", "export": "all", "canonical": "up_to_equivalence"}

#: sha256 of the export document at the commit that defined the benchmark.
EXPORT_SHA256 = "d950ed34f25af5cccab4a43af1e713d9bda2284e1ea0f888418bc7f0bc5ca306"


def search_argv(workload: str, out_path: str) -> list[str]:
    return [a.replace("{out}", out_path) for a in SEARCH_ARGS[workload]]


def _doubled(entries: list, cache: dict) -> list[int]:
    """2Q entries of one row of "num/den" strings."""
    row = []
    for text in entries:
        value = cache.get(text)
        if value is None:
            doubled = 2 * Fraction(text)
            if doubled.denominator != 1:
                raise ValueError(f"entry {text!r} is not a half-integer")
            value = cache[text] = int(doubled)
        row.append(value)
    return row


def gram_failures(n: int, d: Fraction, matrices: list) -> list[str]:
    """Problems with the serialized real-exact matrices of one result block."""
    problems: list[str] = []
    if not matrices:
        return problems
    cache: dict = {}
    stack = np.zeros((len(matrices), n, n), dtype=np.int64)
    for k, obj in enumerate(matrices):
        if (obj.get("n"), obj.get("kind")) != (n, "real-exact") or Fraction(obj["d"]) != d:
            problems.append(f"matrix {k}: wrong header {obj.get('n')}, "
                            f"{obj.get('kind')}, {obj.get('d')}")
            continue
        stack[k] = [_doubled(row, cache) for row in obj["q_entries"]]
    two_d = int(2 * d)
    target = (two_d * two_d + 4 * (n - 1)) * np.eye(n, dtype=np.int64)
    grams = np.einsum("kij,klj->kil", stack, stack)
    bad = np.flatnonzero(~np.all(grams == target, axis=(1, 2)))
    problems.extend(f"matrix {k}: Gram identity fails at d={d}" for k in bad[:5])
    if len(bad) > 5:
        problems.append(f"... {len(bad) - 5} more matrices fail the Gram identity")
    return problems


def check_document(doc, expected_counts: dict, mode: str, with_matrices: bool) -> list[str]:
    """Problems with one search document; an empty list means it passed.

    A wrong count, a missing block or a malformed document is reported as a
    problem, never raised.
    """
    try:
        problems = []
        if doc.get("n") != 8 or doc.get("mode") != mode:
            problems.append(f"header n={doc.get('n')} mode={doc.get('mode')}")
        counts = {block["d"]: block["count"] for block in doc["results"]}
        if counts != expected_counts:
            problems.append(f"counts {counts} != expected {expected_counts}")
        for block in doc["results"]:
            if block["complete"] is not True:
                problems.append(f"block d={block['d']} not complete")
            if with_matrices:
                matrices = block.get("matrices", [])
                if len(matrices) != block["count"]:
                    problems.append(f"block d={block['d']}: {len(matrices)} matrices "
                                    f"for count {block['count']}")
                problems.extend(gram_failures(8, Fraction(block["d"]), matrices))
        return problems
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        return [f"malformed search document: {type(exc).__name__}: {exc}"]


def check_pass(workload: str, code: int, output: bytes, verified: set) -> list[str]:
    """Problems with one pass of a search workload.

    ``verified`` holds digests of outputs already parsed in full this run;
    identical bytes are not parsed twice.
    """
    problems = [] if code == 0 else [f"exit code {code}"]
    digest = hashlib.sha256(output).hexdigest()
    if workload == "export" and digest != EXPORT_SHA256:
        problems.append(f"export digest {digest} != recorded {EXPORT_SHA256}")
    if digest in verified:
        return problems
    try:
        doc = json.loads(output)
    except ValueError as exc:
        return problems + [f"output is not JSON: {exc}"]
    found = check_document(doc, EXPECTED_COUNTS[workload], EXPECTED_MODE[workload],
                           with_matrices=workload != "enumerate")
    if not found:
        verified.add(digest)
    return problems + found
