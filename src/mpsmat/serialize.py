"""Shared file formats: JSON matrices, parameters, designs; CSV export.

Matrix JSON (one object per file, exactly one kind):

  complex     {"n": N, "kind": "complex", "entries": [[[re, im], ...], ...]}
  real-exact  {"n": N, "kind": "real-exact", "d": "num/den",
               "q_entries": [["num/den", ...], ...]}

For the real-exact kind, ``q_entries`` is the scaled matrix
Q = sqrt(d^2 + n - 1) * S with rational entries; parsing and serializing it
round-trips bit for bit.  Hadamard/conference matrices share the real-exact
kind with the ``d`` field absent (a plain exact integer matrix).
``dumps_matrix`` writes a matrix document in one layout only: the text of
``json.dumps(matrix_to_obj(matrix), indent=2)``, produced without the encoder.

Parameter JSON: {"n": N, "m": M, "T": [[[re, im], ...]] or null,
"S_h": [[[re, im], ...]] or null, "P": [one-based images]}; ``S_h`` null
marks a Hermitian-unitary parameter set.

Design JSON: {"v": V, "k": K, "lambda": L, "incidence": [[0/1, ...], ...]}.

Integer fields (n, m, the images in P, v, k, lambda and incidence cells)
must be JSON integers: booleans, floats and strings are malformed.
"""

from __future__ import annotations

import json
import numbers
from fractions import Fraction
from itertools import chain
from typing import Optional, Union

import numpy as np

from .designs import SymmetricDesign
from .exact import IntegerMps, Transform
from .parametrize import HermitianUnitaryParam, UnitaryParam

__all__ = [
    "FormatError",
    "matrix_to_obj",
    "matrix_from_obj",
    "dumps_matrix",
    "loads_matrix",
    "write_search_document",
    "matrix_to_csv",
    "param_to_obj",
    "param_from_obj",
    "design_to_obj",
    "design_from_obj",
    "transform_to_obj",
]

MatrixLike = Union[np.ndarray, IntegerMps]

_NOT_PAIRS = "complex cells must be [re, im] pairs of numbers"


class FormatError(ValueError):
    """Malformed matrix/parameter/design document."""


def _frac_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


def _json_int(value, field: str) -> int:
    """``value`` if it is a JSON integer; booleans, floats and strings fail."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise FormatError(f"{field} must be an integer, got {value!r}")
    return value


def _parse_frac(s) -> Fraction:
    try:
        return Fraction(str(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad rational {s!r}") from exc


def _values(matrix: MatrixLike) -> tuple[Optional[int], np.ndarray]:
    """The kind of a matrix value as (denominator, values): (2, 2Q) for an
    IntegerMps, (1, the array) for an exact integer array, and (None, the
    C-ordered complex128 array) for anything else; FormatError unless square
    of order at least 1, the documents loads_matrix reads."""
    if isinstance(matrix, IntegerMps):
        return 2, matrix.two_q
    a = np.asarray(matrix)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not a.size:
        raise FormatError("matrix must be square, of order at least 1")
    if not np.iscomplexobj(a) and np.issubdtype(a.dtype, np.integer):
        return 1, a
    return None, np.ascontiguousarray(a, dtype=complex)


def matrix_to_obj(matrix: MatrixLike) -> dict:
    """JSON-ready dict for a matrix value.

    IntegerMps and exact integer arrays serialize as kind "real-exact"
    (with/without the d field); everything else as kind "complex".
    """
    denominator, a = _values(matrix)
    if denominator is None:
        return {"n": len(a), "kind": "complex", "entries": _complex_rows_to_obj(a)}
    obj = {"n": len(a), "kind": "real-exact"}
    if denominator == 2:
        obj["d"] = _frac_str(matrix.d)
    obj["q_entries"] = [[_frac_str(Fraction(int(x), denominator)) for x in row] for row in a]
    return obj


def matrix_from_obj(obj: dict) -> MatrixLike:
    """Parse the shared matrix format; inverse of matrix_to_obj.

    Returns an IntegerMps for real-exact documents carrying d, an int64
    array for real-exact documents without d, and a complex array otherwise.
    """
    if not isinstance(obj, dict):
        raise FormatError("matrix document must be a JSON object")
    kind = obj.get("kind")
    if kind not in ("complex", "real-exact"):
        raise FormatError(f"unknown matrix kind {kind!r}")
    n = _json_int(obj.get("n"), "n")
    if n < 1:
        raise FormatError("field n must be a positive integer")
    if kind == "complex":
        if "q_entries" in obj or "d" in obj:
            raise FormatError("complex documents must not carry exact fields")
        entries = obj.get("entries")
        if entries is None:
            raise FormatError("complex documents need an entries field")
        a = _complex_array(entries)
        if a.shape != (n, n):
            raise FormatError(f"entries must be {n} x {n}")
        return a
    if "entries" in obj:
        raise FormatError("real-exact documents must not carry complex entries")
    rows = obj.get("q_entries")
    if rows is None:
        raise FormatError("real-exact documents need a q_entries field")
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise FormatError("q_entries must be a list of rows")
    cells = list(chain.from_iterable(rows))
    texts = list(map(str, cells))
    fracs: dict[str, Fraction] = {}
    for s, cell in zip(texts, cells):  # each distinct text parsed once, in order
        if s not in fracs:
            fracs[s] = _parse_frac(cell)
    if len(rows) != n or any(len(row) != n for row in rows):
        raise FormatError(f"q_entries must be {n} x {n}")
    scale = 2 if "d" in obj else 1
    if any((scale * f).denominator != 1 for f in fracs.values()):
        raise FormatError("exact entries must have denominator 1 or 2" if scale == 2
                          else "plain exact matrices must have integer entries")
    ints = {s: int(scale * f) for s, f in fracs.items()}
    try:
        out = np.array([ints[s] for s in texts], dtype=np.int64).reshape(n, n)
    except OverflowError as exc:
        raise FormatError("exact entries must fit in 64-bit integers") from exc
    return IntegerMps(d=_parse_frac(obj["d"]), two_q=out) if scale == 2 else out


def dumps_matrix(matrix: MatrixLike) -> str:
    """The matrix document, byte for byte ``json.dumps(matrix_to_obj(matrix),
    indent=2)``, written directly: exact rows by the writer of the search
    document, as a stack of one, complex parts with ``float.__repr__``
    (``json.dumps`` when a part is not finite)."""
    denominator, a = _values(matrix)
    if denominator is None:
        return (f'{{\n  "n": {len(a)},\n  "kind": "complex",\n  "entries": [\n'
                f"{_complex_rows(a)}\n  ]\n}}")
    d = f'  "d": {json.dumps(_frac_str(matrix.d))},\n' if denominator == 2 else ""
    head = f'{{\n  "n": {len(a)},\n  "kind": "real-exact",\n{d}  "q_entries": [\n'
    return "".join(_exact_text(a[None], denominator, 4, head, "\n  ]\n}"))


#: Matrices per piece of text that ``_exact_text`` joins and yields: about
#: 230 KB at order 8, so a 16 MB search document is never held whole.
_WRITE_CHUNK = 128


class _CellTexts(dict):
    """The text of each exact cell value, made on its first lookup: ``template``
    filled with the "num/den" string of value/denominator."""

    def __init__(self, template: str, denominator: int):
        self.template, self.denominator = template, denominator

    def __missing__(self, value: int) -> str:
        text = self[value] = self.template.format(_frac_str(Fraction(value, self.denominator)))
        return text


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, list]:
    """(ids, values) of the 2-D integer array ``rows``: the id of each row and
    the values of the distinct rows, listed by id.  One ``lexsort`` brings
    equal rows together and a compare of adjacent rows marks where each
    distinct row starts."""
    order = np.lexsort(rows.T)
    ordered = np.take(rows, order, axis=0)
    new = np.empty(len(rows), dtype=bool)
    new[0] = True
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    ids = np.empty(len(rows), dtype=np.intp)
    ids[order] = new.cumsum() - 1
    return ids, ordered[new].tolist()


def _exact_text(stack: np.ndarray, denominator: int, indent: int, head: str, close: str):
    """Yield the text of the integer stack (k, n, n), k and n at least 1, in
    pieces of ``_WRITE_CHUNK`` matrices.  Each matrix is ``head``, the JSON
    lists of its rows joined by ",\\n" (each an indented list of the "num/den"
    strings of value/denominator) and ``close``; matrices are joined by ",\\n".

    The distinct rows of a stack of several matrices are found once, by
    ``_distinct_rows``; the rows of a single matrix are taken as they are,
    since sorting them costs more than a repeated row saves.  Each distinct
    cell and row is formatted once.  Of the m distinct rows, row i has two
    texts: text i is the row and ",\\n"; text m + i is the row, ``close``,
    ",\\n" and the next ``head``, for the last row of a matrix.  A piece is
    one fancy index of the texts by its rows' codes and one join; the stack's
    last row takes the bare ``close``.  No Python code runs per row."""
    k, n = stack.shape[:2]
    rows = stack.reshape(k * n, n)
    codes, values = (np.arange(n), rows.tolist()) if k == 1 else _distinct_rows(rows)
    m = len(values)
    codes[n - 1::n] += m
    pad = " " * indent
    cells = _CellTexts(f'{pad}  "{{}}"', denominator)
    inner = [f"{pad}[\n" + ",\n".join(map(cells.__getitem__, row)) + f"\n{pad}],\n"
             for row in values]
    # [:-2] drops the ",\n" of an inner text.
    mid = f"{close},\n{head}"
    texts = np.array(inner + [t[:-2] + mid for t in inner], dtype=object)
    step = _WRITE_CHUNK * n
    for start in range(0, k * n, step):
        parts = texts[codes[start:start + step]].tolist()
        if not start:
            parts.insert(0, head)
        if start + step >= k * n:
            parts[-1] = inner[codes[-1] - m][:-2] + close
        yield "".join(parts)


def _complex_rows(c: np.ndarray) -> str:
    """The JSON lists of the rows of the C-ordered complex128 array ``c``, at
    indent 4, joined by ",\\n".  Every distinct cell, told apart by the bits of
    its two parts (so -0.0 is not 0.0), is formatted once."""
    parts = c.view(float).reshape(-1, 2)
    num = float.__repr__ if np.isfinite(parts).all() else json.dumps
    _, first, inverse = np.unique(c.view(np.dtype((np.void, 16))).ravel(),
                                  return_index=True, return_inverse=True)
    cells = ["      [\n        {},\n        {}\n      ]".format(*map(num, parts[i].tolist()))
             for i in first.tolist()]
    return ",\n".join("    [\n" + ",\n".join(map(cells.__getitem__, row)) + "\n    ]"
                      for row in inverse.reshape(c.shape).tolist())


def write_search_document(fh, n: int, mode: str, results, with_matrices: bool) -> None:
    """Write the ``search`` document to the text stream ``fh``, matrix by matrix.

    ``results`` are the SearchResults of order n, one block per ratio (or,
    without ``with_matrices``, anything with ``d``, ``count`` and ``complete``,
    such as count_search's SearchCounts).  The
    text equals ``json.dumps({"n": n, "mode": mode, "results": blocks},
    indent=2)`` where a block is {"d", "count", "complete"} plus, with
    ``with_matrices``, "matrices": the ``matrix_to_obj`` of each hit.  It is
    written straight from each exactly checked ``two_q_stack``: every distinct
    cell and row is formatted once.
    """
    fh.write(f'{{\n  "n": {n},\n  "mode": {json.dumps(mode)},\n  "results": [')
    for i, res in enumerate(results):
        d = json.dumps(_frac_str(res.d))
        fh.write(("," if i else "") + f'\n    {{\n      "d": {d},\n'
                 f'      "count": {res.count},\n'
                 f'      "complete": {json.dumps(res.complete)}')
        if with_matrices:
            fh.write(',\n      "matrices": [')
            _write_matrices(fh, n, d, res.two_q_stack)
        fh.write("\n    }")
    fh.write("\n  ]\n}" if results else "]\n}")


def _write_matrices(fh, n: int, d_json: str, stack: np.ndarray) -> None:
    """The items of a block's "matrices" list and its closing bracket."""
    if not len(stack):
        fh.write("]")
        return
    head = (f'        {{\n          "n": {n},\n          "kind": "real-exact",\n'
            f'          "d": {d_json},\n          "q_entries": [\n')
    fh.write("\n")
    fh.writelines(_exact_text(stack, 2, 12, head, "\n          ]\n        }"))
    fh.write("\n      ]")


def loads_matrix(text: str) -> MatrixLike:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"not valid JSON: {exc}") from exc
    return matrix_from_obj(obj)


def _complex_csv(x: complex) -> str:
    re, im = float(x.real), float(x.imag)
    sign = "+" if im >= 0 else "-"
    return f"{re!r}{sign}{abs(im)!r}i"


def matrix_to_csv(matrix: MatrixLike) -> str:
    """CSV rows: complex entries as "re+imi" strings, exact ones as rationals
    (plain integers for an integer array); FormatError unless square, of order
    at least 1."""
    denominator, a = _values(matrix)
    if denominator is None:
        cell = _complex_csv
    elif denominator == 1:
        cell = str
    else:
        def cell(x):
            return _frac_str(Fraction(x, 2))
    return "\n".join(",".join(map(cell, row)) for row in a.tolist()) + "\n"


def _complex_rows_to_obj(a: np.ndarray) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in np.atleast_2d(a)]


def _complex_array(rows) -> np.ndarray:
    """Rows of [re, im] cells as a complex array; FormatError for anything else.

    The rows and each row are JSON arrays (lists or tuples).  One scan over
    the numbers checks that every cell holds two of them (booleans are not
    numbers); one float conversion of the flat numbers, viewed as complex,
    does the rest.  Without cells there is no [re, im] axis: the shape is
    (0,) or (rows, 0).
    """
    if not isinstance(rows, (list, tuple)) or not all(isinstance(row, (list, tuple))
                                                      for row in rows):
        raise FormatError(_NOT_PAIRS)
    try:
        cells = list(chain.from_iterable(rows))
        sizes = set(map(len, cells))
        parts = list(chain.from_iterable(cells))
    except TypeError as exc:
        raise FormatError(_NOT_PAIRS) from exc
    if not sizes <= {2} or not all(issubclass(k, numbers.Real) and k is not bool
                                   for k in set(map(type, parts))):
        raise FormatError(_NOT_PAIRS)
    widths = set(map(len, rows))
    if len(widths) > 1:
        raise FormatError("complex rows must all have the same length")
    try:
        a = np.array(parts, dtype=float)
    except OverflowError as exc:
        raise FormatError(_NOT_PAIRS) from exc
    return a.view(complex).reshape(len(rows), *widths)


def _complex_rows_from_obj(rows, shape) -> np.ndarray:
    a = _complex_array(rows)
    if a.shape != shape:
        raise FormatError(f"block must have shape {shape}")
    return a


def param_to_obj(param: HermitianUnitaryParam | UnitaryParam) -> dict:
    """Parameter JSON; S_h is null for Hermitian-unitary parameter sets."""
    hermitian = isinstance(param, HermitianUnitaryParam)
    t = param.t
    obj = {
        "n": param.n,
        "m": param.m,
        "T": None if t is None else _complex_rows_to_obj(t),
        "S_h": None if hermitian else _complex_rows_to_obj(param.s_h),
        "P": [p + 1 for p in param.perm],
    }
    return obj


def param_from_obj(obj: dict) -> HermitianUnitaryParam | UnitaryParam:
    if not isinstance(obj, dict):
        raise FormatError("parameter document must be a JSON object")
    try:
        n = _json_int(obj["n"], "n")
        m = _json_int(obj["m"], "m")
        perm = tuple(_json_int(x, "P entry") - 1 for x in obj["P"])
    except (KeyError, TypeError) as exc:
        raise FormatError(f"bad parameter document: {exc}") from exc
    # Before the blocks, whose shapes (m, n - m) and (m, m) m sets.
    if not 1 <= m <= n:
        raise FormatError(f"m must lie in 1..{n}, got {m}")
    t_obj = obj.get("T")
    s_obj = obj.get("S_h")
    t = None if t_obj is None else _complex_rows_from_obj(t_obj, (m, n - m))
    if s_obj is None:
        if t is None:
            raise FormatError("Hermitian parameters need T")
        return HermitianUnitaryParam(n=n, m=m, t=t, perm=perm)
    s_h = _complex_rows_from_obj(s_obj, (m, m))
    return UnitaryParam(n=n, m=m, t=t, s_h=s_h, perm=perm)


def design_to_obj(design: SymmetricDesign) -> dict:
    return {
        "v": design.v,
        "k": design.k,
        "lambda": design.lam,
        "incidence": design.incidence.astype(int).tolist(),
    }


def design_from_obj(obj: dict) -> SymmetricDesign:
    if not isinstance(obj, dict):
        raise FormatError("design document must be a JSON object")
    try:
        return SymmetricDesign(
            v=_json_int(obj["v"], "v"),
            k=_json_int(obj["k"], "k"),
            lam=_json_int(obj["lambda"], "lambda"),
            incidence=np.asarray([[_json_int(x, "incidence entry") for x in row]
                                  for row in obj["incidence"]], dtype=np.int64),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"bad design document: {exc}") from exc


def transform_to_obj(t: Transform) -> dict:
    """Equivalence witness as JSON (one-based permutation images)."""
    return {
        "P": [p + 1 for p in t.perm],
        "signs": list(t.signs),
        "global": t.global_sign,
    }
