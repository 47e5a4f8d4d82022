"""Command-line interface.

Subcommands: construct, verify, classify, search, canon, equiv, param,
designs, extract-design, bridge, scatter.  All matrix input/output uses the
shared JSON format (see serialize); --format csv switches the payload of
matrix-producing commands to CSV.  Each subcommand accepts only the options
it reads.

Exit codes: 0 success / exists / equivalent; 1 impossible / not equivalent /
failed checks / domain error; 2 open / too large / incomplete results;
64 usage error; 74 I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from fractions import Fraction

import numpy as np

from . import classify as _classify
from . import core, designs, exact, families, search, serialize
from .parametrize import (
    HermitianUnitaryParam,
    build_hermitian_unitary,
    build_unitary,
    decompose_hermitian_unitary,
    decompose_unitary,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_OPEN = 2
EXIT_USAGE = 64
EXIT_IO = 74


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _read_text(path: str | None) -> str:
    try:
        if path is None or path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_IO)


@contextlib.contextmanager
def _output(path: str | None):
    """The text stream for --out: the file at ``path``, or stdout.  An OSError
    while opening or writing it exits 74."""
    try:
        if path is None or path == "-":
            yield sys.stdout
        else:
            with open(path, "w", encoding="utf-8") as fh:
                yield fh
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_IO)


def _write_text(text: str, path: str | None) -> None:
    """Write ``text``; on stdout it ends with exactly one newline if it had none."""
    with _output(path) as fh:
        fh.write(text)
        if fh is sys.stdout and not text.endswith("\n"):
            fh.write("\n")


def _load_matrix(path: str | None):
    return serialize.loads_matrix(_read_text(path))


def _emit_matrix(matrix, args) -> None:
    if args.format == "csv":
        _write_text(serialize.matrix_to_csv(matrix), args.out)
    else:
        _write_text(serialize.dumps_matrix(matrix), args.out)


def _parse_ratio(text: str) -> Fraction:
    """A rational ratio; decimals that Fraction rejects go through float.
    Infinite, NaN and float-overflowing values are usage errors."""
    try:
        try:
            ratio = Fraction(text)
        except (ValueError, ZeroDivisionError):
            ratio = Fraction(float(text)).limit_denominator(10**6)
        float(ratio)
    except (ValueError, OverflowError):
        raise argparse.ArgumentTypeError(f"bad ratio {text!r}")
    return ratio


def _finite_float(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def _tolerance(text: str) -> float:
    value = _finite_float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive tolerance")
    return value


def _fail(message: str, code: int = EXIT_NEGATIVE) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _load_aux(path: str, kind: str):
    text = _read_text(path)
    if kind == "design":
        return serialize.design_from_obj(json.loads(text))
    loaded = serialize.loads_matrix(text)
    if isinstance(loaded, exact.IntegerMps):
        raise serialize.FormatError("an auxiliary matrix is a Hadamard or conference "
                                    "matrix, which carries no d")
    return np.asarray(loaded)


def _cmd_construct(args) -> int:
    name, n, d = args.family, args.n, args.d
    family = families.FAMILIES[name]
    if args.alpha is not None and not family.alpha:
        return _fail(f"{name} takes no --alpha", EXIT_USAGE)
    if args.aux is not None and not family.aux:
        return _fail(f"{name} takes no --aux", EXIT_USAGE)
    if family.ratio is not None:
        if d is not None and d != family.ratio(n):
            return _fail(f"{name} has d = {family.ratio(n)} at order {n}")
        d = family.ratio(n)
    if d is None and args.alpha is None:
        return _fail(f"{name} needs --d" + (" or --alpha" if family.alpha else ""))
    aux = _load_aux(args.aux, family.aux) if args.aux else None
    member = family.exact(n, d, aux)
    if member is None:
        aux = family.provider(n, d) if aux is None else aux
        if aux is None and family.aux:
            return _fail(f"no built-in {family.aux} for {name} here; pass --aux FILE")
        member = family.float(n, d, aux, args.alpha)
    order = member.n if isinstance(member, exact.IntegerMps) else member.shape[0]
    if order != n:
        return _fail(f"the {name} member has order {order}, not {n}")
    _emit_matrix(member, args)
    return EXIT_OK


def _cmd_verify(args) -> int:
    loaded = _load_matrix(args.file)
    mat = loaded.matrix() if isinstance(loaded, exact.IntegerMps) else np.asarray(loaded)
    mat = core.as_square_matrix(mat)
    tol = args.tol
    report: dict = {
        "n": int(mat.shape[0]),
        "hermitian": core._is_hermitian(mat, tol),
        "unitary": core._is_unitary(mat, tol),
        "mps": False,
        "d_bound": None,
        "trace_identity": None,
        "profile": None,
    }
    if report["hermitian"] and report["unitary"]:
        try:
            prof = core._profile(mat, tol)
            report["mps"] = True
            report["profile"] = dict(vars(prof))
            # Measured d carries float noise; give the boundary tol slack.
            report["d_bound"] = core.check_d_bound(prof.n, max(0.0, prof.d - tol))
            report["trace_identity"] = core.check_trace_identity(prof, tol)
        except core.MpsError:
            report["mps"] = False
    _write_text(json.dumps(report, indent=2), args.out)
    passed = all(report[k] for k in ("hermitian", "unitary", "mps", "d_bound",
                                     "trace_identity"))
    return EXIT_OK if passed else EXIT_NEGATIVE


def _verdict_text(v: _classify.Verdict) -> str:
    """The verdict document as ``json.dumps(..., indent=2)`` lays it out; the
    witness, its last key, is written by ``dumps_matrix`` one level deeper."""
    obj = {
        "n": v.n,
        "d": f"{v.d.numerator}/{v.d.denominator}",
        "status": v.status,
        "rule": v.rule,
    }
    if v.detail:
        obj["detail"] = v.detail
    # A matrix document holds no raw newline, so each "\n" starts a line.
    witness = serialize.dumps_matrix(v.witness).replace("\n", "\n  ") if v.witness else "null"
    return json.dumps(obj, indent=2)[:-2] + f',\n  "witness": {witness}\n}}'


def _cmd_classify(args) -> int:
    verdict = _classify.necessary_conditions(args.n, args.d)
    _write_text(_verdict_text(verdict), args.out)
    if verdict.status == _classify.EXISTS:
        return EXIT_OK
    if verdict.status == _classify.IMPOSSIBLE_STATUS:
        return EXIT_NEGATIVE
    return EXIT_OPEN


def _cmd_search(args) -> int:
    ratios = [args.d] if args.d is not None else search.candidate_ratios(args.n)
    mode = "up_to_equivalence" if args.canonical else "all"
    limits = dict(max_results=args.max_results, budget_seconds=args.budget)
    # Every ratio is searched before the output is opened, so an error writes nothing.
    if args.count_only and not args.canonical:
        # The all-mode count needs only the checked sign-flip orbit representatives.
        results = [search.count_search(args.n, d, **limits) for d in ratios]
    else:
        results = [search.exhaustive_search(args.n, d, mode=mode, **limits) for d in ratios]
    with _output(args.out) as fh:
        serialize.write_search_document(fh, args.n, mode, results, not args.count_only)
        if fh is sys.stdout:
            fh.write("\n")
    return EXIT_OK if all(res.complete for res in results) else EXIT_OPEN


def _require_exact(loaded) -> exact.IntegerMps:
    if not isinstance(loaded, exact.IntegerMps):
        raise SystemExit(_fail("this command needs a real-exact matrix with d"))
    return loaded


def _cmd_canon(args) -> int:
    m = _require_exact(_load_matrix(args.file))
    cf = search.canonical_form(m)
    _emit_matrix(cf, args)
    return EXIT_OK


def _cmd_equiv(args) -> int:
    m1 = _require_exact(_load_matrix(args.file1))
    m2 = _require_exact(_load_matrix(args.file2))
    witness = search.are_equivalent(m1, m2)
    if witness is None:
        _write_text(json.dumps({"equivalent": False}), args.out)
        return EXIT_NEGATIVE
    obj = {"equivalent": True, "witness": serialize.transform_to_obj(witness)}
    _write_text(json.dumps(obj, indent=2), args.out)
    return EXIT_OK


def _cmd_param_encode(args) -> int:
    loaded = _load_matrix(args.file)
    mat = loaded.matrix() if isinstance(loaded, exact.IntegerMps) else loaded
    mat = np.asarray(mat, dtype=complex)
    if core.is_hermitian(mat, args.tol) and not args.general:
        param = decompose_hermitian_unitary(mat, args.tol)
    else:
        param = decompose_unitary(mat, args.tol)
    _write_text(json.dumps(serialize.param_to_obj(param), indent=2), args.out)
    return EXIT_OK


def _cmd_param_decode(args) -> int:
    param = serialize.param_from_obj(json.loads(_read_text(args.file)))
    if isinstance(param, HermitianUnitaryParam):
        mat = build_hermitian_unitary(param)
    else:
        mat = build_unitary(param)
    _emit_matrix(mat, args)
    return EXIT_OK


def _cmd_designs_make(args) -> int:
    if args.hadamard is not None:
        _emit_matrix(designs.sylvester_hadamard(args.hadamard), args)
    elif args.conference is not None:
        _emit_matrix(designs.paley_conference(args.conference), args)
    else:
        _emit_matrix(designs.fourier_complex_hadamard(args.fourier), args)
    return EXIT_OK


def _cmd_designs_verify(args) -> int:
    obj = json.loads(_read_text(args.file))
    try:
        design = serialize.design_from_obj(obj)
    except (serialize.FormatError, designs.DesignInvalidError) as exc:
        _write_text(json.dumps({"valid": False, "error": str(exc)}), args.out)
        return EXIT_NEGATIVE
    _write_text(json.dumps({
        "valid": True, "v": design.v, "k": design.k, "lambda": design.lam,
        "degenerate": design.degenerate}), args.out)
    return EXIT_OK


def _cmd_designs_from_hadamard(args) -> int:
    loaded = _load_matrix(args.file)
    h = loaded.two_q // 2 if isinstance(loaded, exact.IntegerMps) else loaded
    design = designs.hadamard_to_design(np.asarray(h))
    _write_text(json.dumps(serialize.design_to_obj(design), indent=2), args.out)
    return EXIT_OK


def _cmd_extract_design(args) -> int:
    m = _require_exact(_load_matrix(args.file))
    design = exact.extract_design(m)
    obj = serialize.design_to_obj(design)
    obj["degenerate"] = design.degenerate
    _write_text(json.dumps(obj, indent=2), args.out)
    return EXIT_OK


def _cmd_bridge(args) -> int:
    loaded = _load_matrix(args.file)
    if isinstance(loaded, exact.IntegerMps):
        _emit_matrix(exact.hadamard_bridge(loaded), args)
        return EXIT_OK
    if np.iscomplexobj(np.asarray(loaded)):
        return _fail("bridge takes a real-exact MPS matrix or a Hadamard matrix")
    _emit_matrix(exact.hadamard_to_mps(np.asarray(loaded)), args)
    return EXIT_OK


def _cmd_scatter(args) -> int:
    loaded = _load_matrix(args.file)
    mat = loaded.matrix() if isinstance(loaded, exact.IntegerMps) else np.asarray(loaded)
    n = mat.shape[0]
    if not 1 <= args.edge <= n:
        return _fail(f"--edge must lie in 1..{n}")
    probs = core.scattering_probabilities(mat, args.edge - 1, args.tol)
    # scattering_probabilities has found mat Hermitian unitary.
    prof = core._profile(mat, args.tol)
    obj = {
        "edge": args.edge,
        "probabilities": [float(x) for x in probs],
        "reflection": float(probs[args.edge - 1]),
        "ratio_d_squared": float(prof.d) ** 2,
    }
    _write_text(json.dumps(obj, indent=2), args.out)
    return EXIT_OK


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser tree, built on first use; parse_args gives a fresh namespace.
    Each option that several subcommands read is defined once, in a parent
    parser; --help lists those before a command's own options."""
    def parent(*name_or_flags, **kwargs) -> argparse.ArgumentParser:
        p = argparse.ArgumentParser(add_help=False)
        p.add_argument(*name_or_flags, **kwargs)
        return p

    out = parent("--out", default=None, help="output path (default stdout)")
    file = parent("file", nargs="?", default=None)
    fmt = parent("--format", choices=("json", "csv"), default="json")
    tol = parent("--tol", type=_tolerance, default=core.DEFAULT_TOL)

    def command(group, name, func, help, *parents) -> argparse.ArgumentParser:
        p = group.add_parser(name, help=help, parents=[out, *parents])
        p.set_defaults(func=func)
        return p

    parser = _Parser(prog="mpsmat",
                     description="Hermitian unitary MPS matrices: construct, "
                                 "verify, classify, search.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = command(sub, "construct", _cmd_construct, "build a family member", fmt)
    p.add_argument("--family", required=True, choices=families.FAMILY_NAMES)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=_parse_ratio, default=None)
    p.add_argument("--alpha", type=_finite_float, default=None)
    p.add_argument("--aux", default=None, help="auxiliary matrix/design file")

    command(sub, "verify", _cmd_verify, "check a matrix file", file, tol)

    p = command(sub, "classify", _cmd_classify, "existence verdict for (n, d)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=_parse_ratio, required=True)

    p = command(sub, "search", _cmd_search, "exhaustive real search")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=_parse_ratio, default=None)
    p.add_argument("--canonical", action="store_true",
                   help="one representative per equivalence class")
    p.add_argument("--max-results", type=int, default=None,
                   help="stop after this many hits per ratio; without --canonical, "
                        "the first hits of the complete output")
    p.add_argument("--budget", type=_finite_float, default=None, help="seconds")
    p.add_argument("--count-only", action="store_true",
                   help="report counts without serializing the matrices")

    command(sub, "canon", _cmd_canon, "canonical form of a real-exact matrix", file, fmt)

    p = command(sub, "equiv", _cmd_equiv, "equivalence witness between two matrices")
    p.add_argument("file1")
    p.add_argument("file2")

    actions = sub.add_parser("param", help="encode/decode unitary parameters")
    actions = actions.add_subparsers(dest="action", required=True)
    p = command(actions, "encode", _cmd_param_encode, "parameters of a unitary matrix",
                file, tol)
    p.add_argument("--general", action="store_true",
                   help="force the general-unitary parametrization")
    command(actions, "decode", _cmd_param_decode, "the unitary matrix of a parameter file",
            file, fmt)

    actions = sub.add_parser("designs", help="design and provider utilities")
    actions = actions.add_subparsers(dest="action", required=True)
    p = command(actions, "make", _cmd_designs_make,
                "a Hadamard, conference or Fourier matrix", fmt)
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--hadamard", type=int, default=None)
    which.add_argument("--conference", type=int, default=None)
    which.add_argument("--fourier", type=int, default=None)
    command(actions, "verify", _cmd_designs_verify, "check a design file", file)
    command(actions, "from-hadamard", _cmd_designs_from_hadamard,
            "the design of a Hadamard matrix", file)

    command(sub, "extract-design", _cmd_extract_design, "design behind a real matrix", file)
    command(sub, "bridge", _cmd_bridge, "matrix <-> Hadamard bridge (by input kind)",
            file, fmt)

    p = command(sub, "scatter", _cmd_scatter, "scattering probabilities from one edge",
                file, tol)
    p.add_argument("--edge", type=int, required=True, help="1-based edge index")

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (search.TooLargeError, MemoryError) as exc:
        return _fail(str(exc) or "out of memory", EXIT_OPEN)
    except (serialize.FormatError, json.JSONDecodeError) as exc:
        return _fail(f"bad input: {exc}")
    except ValueError as exc:
        return _fail(f"{type(exc).__name__}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
