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
import dataclasses
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


def _write_text(text: str, path: str | None) -> None:
    try:
        if path is None or path == "-":
            sys.stdout.write(text)
            if not text.endswith("\n"):
                sys.stdout.write("\n")
        else:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_IO)


def _load_matrix(path: str | None):
    return serialize.loads_matrix(_read_text(path))


def _emit_matrix(matrix, args) -> None:
    if args.format == "csv":
        _write_text(serialize.matrix_to_csv(matrix), args.out)
    else:
        _write_text(serialize.dumps_matrix(matrix, indent=2), args.out)


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


def _fail(message: str, code: int = EXIT_NEGATIVE) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _load_aux(path: str, kind: str):
    text = _read_text(path)
    if kind == "design":
        return serialize.design_from_obj(json.loads(text))
    return np.asarray(serialize.loads_matrix(text))


def _cmd_construct(args) -> int:
    name, n, d = args.family, args.n, args.d
    family = families.FAMILIES[name]
    if family.ratio is not None:
        if d is not None and d != family.ratio(n):
            return _fail(f"{name} has d = {family.ratio(n)} at order {n}")
        d = family.ratio(n)
    if d is None and not (family.alpha and args.alpha is not None):
        return _fail(f"{name} needs --d" + (" or --alpha" if family.alpha else ""))
    aux = _load_aux(args.aux, family.aux) if args.aux and family.aux else None
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
    tol = args.tol
    report: dict = {
        "n": int(mat.shape[0]),
        "hermitian": core.is_hermitian(mat, tol),
        "unitary": core.is_unitary(mat, tol),
        "mps": False,
        "d_bound": None,
        "trace_identity": None,
        "profile": None,
    }
    if report["hermitian"] and report["unitary"]:
        try:
            prof = core.mps_profile(mat, tol)
            report["mps"] = True
            report["profile"] = dataclasses.asdict(prof)
            # Measured d carries float noise; give the boundary tol slack.
            report["d_bound"] = core.check_d_bound(prof.n, max(0.0, prof.d - tol))
            report["trace_identity"] = core.check_trace_identity(prof, tol)
        except core.MpsError:
            report["mps"] = False
    _write_text(json.dumps(report, indent=2), args.out)
    passed = all(report[k] for k in ("hermitian", "unitary", "mps", "d_bound",
                                     "trace_identity"))
    return EXIT_OK if passed else EXIT_NEGATIVE


def _verdict_obj(v: _classify.Verdict) -> dict:
    obj = {
        "n": v.n,
        "d": f"{v.d.numerator}/{v.d.denominator}",
        "status": v.status,
        "rule": v.rule,
    }
    if v.detail:
        obj["detail"] = v.detail
    obj["witness"] = serialize.matrix_to_obj(v.witness) if v.witness else None
    return obj


def _cmd_classify(args) -> int:
    verdict = _classify.necessary_conditions(args.n, args.d)
    _write_text(json.dumps(_verdict_obj(verdict), indent=2), args.out)
    if verdict.status == _classify.EXISTS:
        return EXIT_OK
    if verdict.status == _classify.IMPOSSIBLE_STATUS:
        return EXIT_NEGATIVE
    return EXIT_OPEN


def _cmd_search(args) -> int:
    ratios = [args.d] if args.d is not None else search.candidate_ratios(args.n)
    mode = "up_to_equivalence" if args.canonical else "all"
    blocks = []
    all_complete = True
    for d in ratios:
        res = search.exhaustive_search(
            args.n, d, mode=mode, max_results=args.max_results,
            budget_seconds=args.budget, max_order=args.max_order,
        )
        all_complete &= res.complete
        block = {
            "d": f"{res.d.numerator}/{res.d.denominator}",
            "count": res.count,
            "complete": res.complete,
        }
        if not args.count_only:
            block["matrices"] = [serialize.matrix_to_obj(m) for m in res.matrices()]
        blocks.append(block)
    _write_text(json.dumps({"n": args.n, "mode": mode, "results": blocks},
                           indent=2), args.out)
    return EXIT_OK if all_complete else EXIT_OPEN


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


def _cmd_param(args) -> int:
    if args.action == "encode":
        loaded = _load_matrix(args.file)
        mat = loaded.matrix() if isinstance(loaded, exact.IntegerMps) else loaded
        mat = np.asarray(mat, dtype=complex)
        if core.is_hermitian(mat, args.tol) and not args.general:
            param = decompose_hermitian_unitary(mat, args.tol)
        else:
            param = decompose_unitary(mat, args.tol)
        _write_text(json.dumps(serialize.param_to_obj(param), indent=2), args.out)
        return EXIT_OK
    param = serialize.param_from_obj(json.loads(_read_text(args.file)))
    if isinstance(param, HermitianUnitaryParam):
        mat = build_hermitian_unitary(param)
    else:
        mat = build_unitary(param)
    _emit_matrix(mat, args)
    return EXIT_OK


def _cmd_designs(args) -> int:
    if args.action == "make":
        picked = [x for x in (args.hadamard, args.conference, args.fourier)
                  if x is not None]
        if len(picked) != 1:
            return _fail("pass exactly one of --hadamard N, --conference N, --fourier N")
        if args.hadamard is not None:
            _emit_matrix(designs.sylvester_hadamard(args.hadamard), args)
        elif args.conference is not None:
            _emit_matrix(designs.paley_conference(args.conference), args)
        else:
            _emit_matrix(designs.fourier_complex_hadamard(args.fourier), args)
        return EXIT_OK
    if args.action == "verify":
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
    if args.action == "from-hadamard":
        loaded = _load_matrix(args.file)
        h = loaded.two_q // 2 if isinstance(loaded, exact.IntegerMps) else loaded
        design = designs.hadamard_to_design(np.asarray(h))
        _write_text(json.dumps(serialize.design_to_obj(design), indent=2), args.out)
        return EXIT_OK
    return _fail(f"unknown designs action {args.action!r}")


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
    prof = core.mps_profile(mat, args.tol)
    obj = {
        "edge": args.edge,
        "probabilities": [float(x) for x in probs],
        "reflection": float(probs[args.edge - 1]),
        "ratio_d_squared": float(prof.d) ** 2,
    }
    _write_text(json.dumps(obj, indent=2), args.out)
    return EXIT_OK


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None, help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mpsmat",
                     description="Hermitian unitary MPS matrices: construct, "
                                 "verify, classify, search.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a family member")
    p.add_argument("--family", required=True, choices=families.FAMILY_NAMES)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=_parse_ratio, default=None)
    p.add_argument("--alpha", type=_finite_float, default=None)
    p.add_argument("--aux", default=None, help="auxiliary matrix/design file")
    _add_common(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="check a matrix file")
    p.add_argument("file", nargs="?", default=None)
    _add_common(p)
    p.add_argument("--tol", type=float, default=core.DEFAULT_TOL)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("classify", help="existence verdict for (n, d)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=_parse_ratio, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("search", help="exhaustive real search")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=_parse_ratio, default=None)
    p.add_argument("--canonical", action="store_true",
                   help="one representative per equivalence class")
    p.add_argument("--max-results", type=int, default=None,
                   help="stop after this many hits per ratio")
    p.add_argument("--budget", type=float, default=None, help="seconds")
    p.add_argument("--max-order", type=int, default=search.DEFAULT_SEARCH_MAX_ORDER)
    p.add_argument("--count-only", action="store_true",
                   help="report counts without serializing the matrices")
    _add_common(p)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("canon", help="canonical form of a real-exact matrix")
    p.add_argument("file", nargs="?", default=None)
    _add_common(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_canon)

    p = sub.add_parser("equiv", help="equivalence witness between two matrices")
    p.add_argument("file1")
    p.add_argument("file2")
    _add_common(p)
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("param", help="encode/decode unitary parameters")
    p.add_argument("action", choices=("encode", "decode"))
    p.add_argument("file", nargs="?", default=None)
    p.add_argument("--general", action="store_true",
                   help="force the general-unitary parametrization")
    _add_common(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--tol", type=float, default=core.DEFAULT_TOL)
    p.set_defaults(func=_cmd_param)

    p = sub.add_parser("designs", help="design and provider utilities")
    p.add_argument("action", choices=("make", "verify", "from-hadamard"))
    p.add_argument("file", nargs="?", default=None)
    p.add_argument("--hadamard", type=int, default=None)
    p.add_argument("--conference", type=int, default=None)
    p.add_argument("--fourier", type=int, default=None)
    _add_common(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_designs)

    p = sub.add_parser("extract-design", help="design behind a real matrix")
    p.add_argument("file", nargs="?", default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_extract_design)

    p = sub.add_parser("bridge", help="matrix <-> Hadamard bridge (by input kind)")
    p.add_argument("file", nargs="?", default=None)
    _add_common(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_bridge)

    p = sub.add_parser("scatter", help="scattering probabilities from one edge")
    p.add_argument("file", nargs="?", default=None)
    p.add_argument("--edge", type=int, required=True, help="1-based edge index")
    _add_common(p)
    p.add_argument("--tol", type=float, default=core.DEFAULT_TOL)
    p.set_defaults(func=_cmd_scatter)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except search.TooLargeError as exc:
        return _fail(str(exc), EXIT_OPEN)
    except SystemExit:
        raise
    except (serialize.FormatError, json.JSONDecodeError) as exc:
        return _fail(f"bad input: {exc}")
    except (ValueError, core.MpsError) as exc:
        return _fail(f"{type(exc).__name__}: {exc}")


if __name__ == "__main__":
    sys.exit(main())
