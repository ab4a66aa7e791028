"""Command-line front end: matrix I/O, command dispatch, report emission.

Exit codes: 0 pass/success, 1 verification failed, 2 usage or parse error,
3 numerical precondition or invariant violation.  Verification commands
print a report JSON object to stdout (or a one-line summary with
``--quiet``); artifacts are written to files.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import clifford, cpsd, elliptope, factorization, matio, quantum
from .errors import MatrixFormatError, NumericalContractError
from .linalg import DEFAULT_TOL, ToleranceConfig
from .report import CheckResult, VerificationReport

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CONTRACT = 3

_GROUPS = {"clifford", "elliptope", "factorize", "cpsd", "quantum"}
_GLOBAL_VALUE_OPTS = {"--eq-tol", "--psd-tol", "--rank-tol", "--seed"}
_FACTORIZE_ACTIONS = {"build", "verify", "clifford-identity"}


def _normalize_argv(argv: list[str]) -> list[str]:
    """Allow `factorize E.json -o DIR` as sugar for `factorize build E.json -o DIR`."""
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _GLOBAL_VALUE_OPTS:
            i += 2
            continue
        if tok.startswith("--") and "=" in tok:
            i += 1
            continue
        if tok == "--quiet":
            i += 1
            continue
        break
    if i < len(argv) and argv[i] == "factorize":
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if nxt is not None and nxt not in _FACTORIZE_ACTIONS and nxt not in ("-h", "--help"):
            return argv[: i + 1] + ["build"] + argv[i + 1 :]
    return argv


def _emit(args, report: matio.ReportFile) -> None:
    if args.quiet:
        status = "PASS" if report.passed else "FAIL"
        print(f"{status} {report.command} max_deviation={report.max_deviation:.6e}")
    else:
        print(json.dumps(report.to_obj(), indent=2, allow_nan=False))


def _note(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _read_real_matrix(path) -> np.ndarray:
    m = matio.read_matrix(path)
    if np.iscomplexobj(m):
        if m.size and float(np.max(np.abs(m.imag))) > 0.0:
            raise NumericalContractError(f"{path}: expected a real matrix")
        m = m.real
    return m


# ---------------------------------------------------------------- clifford


def _cmd_clifford_gen(args, tol: ToleranceConfig) -> int:
    rep = clifford.gamma_generators(args.rank)
    matio.save_generators(args.output, rep.generators, rep.rank)
    _note(args, f"wrote {rep.rank} generators of size {rep.rep_dim} to {args.output}")
    return EXIT_PASS


def _cmd_clifford_verify(args, tol: ToleranceConfig) -> int:
    mats = matio.load_generators(args.directory)
    report = clifford.verify_clifford_relations(mats, tol)
    _emit(args, matio.ReportFile.from_report("clifford verify", report, tol))
    return EXIT_PASS if report.passed else EXIT_FAIL


# ---------------------------------------------------------------- elliptope


def _cmd_elliptope_check_extreme(args, tol: ToleranceConfig) -> int:
    e = _read_real_matrix(args.matrix)
    ext = elliptope.check_extreme(e, tol)
    checks = (
        CheckResult("rank", True, 0.0, value=ext.rank),
        CheckResult("hadamard_rank", True, 0.0, value=ext.hadamard_rank),
        CheckResult("required_rank", True, 0.0, value=ext.required_rank),
        CheckResult(
            "is_extreme",
            ext.is_extreme,
            0.0 if ext.is_extreme else abs(ext.required_rank - ext.hadamard_rank),
            note=f"sv gaps {ext.sv_gap:.3g} / {ext.hadamard_sv_gap:.3g}",
        ),
    )
    report = VerificationReport(checks)
    _emit(args, matio.ReportFile.from_report("elliptope check-extreme", report, tol))
    return EXIT_PASS if ext.is_extreme else EXIT_FAIL


def _cmd_elliptope_gen_extreme(args, tol: ToleranceConfig) -> int:
    matrix, _ = elliptope.gen_extreme_lex(args.rank)
    matio.write_matrix(args.output, matrix)
    _note(args, f"wrote a {matrix.shape[0]} x {matrix.shape[0]} extreme point to {args.output}")
    return EXIT_PASS


def _cmd_elliptope_rmax(args, tol: ToleranceConfig) -> int:
    print(elliptope.r_max(args.n))
    return EXIT_PASS


# ---------------------------------------------------------------- factorize


def _cmd_factorize_build(args, tol: ToleranceConfig) -> int:
    e = _read_real_matrix(args.matrix)
    fb = factorization.factorize_clifford(e, tol=tol)
    if args.form == "b":
        matio.save_form_b(args.output, fb)
    else:
        matio.save_matrix_factorization(args.output, factorization.to_form_c(fb))
    _note(args, f"wrote a form-{args.form} factorization of dimension {fb.dim} to {args.output}")
    return EXIT_PASS


def _cmd_factorize_verify(args, tol: ToleranceConfig) -> int:
    e = _read_real_matrix(args.matrix)
    if args.mode == "b-form":
        fact = matio.load_form_b(args.directory)
    else:
        fact = matio.load_matrix_factorization(args.directory)
    report = factorization.verify_factorization(e, fact, tol, mode=args.mode)
    _emit(args, matio.ReportFile.from_report("factorize verify", report, tol))
    return EXIT_PASS if report.passed else EXIT_FAIL


def _cmd_factorize_identity(args, tol: ToleranceConfig) -> int:
    block = _read_real_matrix(args.block)
    mf = matio.load_matrix_factorization(args.directory)
    n = block.shape[0]
    if n > mf.x_mats.shape[0]:
        raise NumericalContractError(
            f"block size {n} exceeds the {mf.x_mats.shape[0]} stored involutions"
        )
    report = factorization.verify_clifford_identity(
        block, mf.x_mats[:n], trials=args.trials, seed=args.seed, tol=tol
    )
    _emit(args, matio.ReportFile.from_report("factorize clifford-identity", report, tol, seed=args.seed))
    return EXIT_PASS if report.passed else EXIT_FAIL


# ---------------------------------------------------------------- cpsd


def _cmd_cpsd_build_pc(args, tol: ToleranceConfig) -> int:
    c = _read_real_matrix(args.matrix)
    witness = cpsd.build_pc(c, tol)
    matio.write_matrix(args.output, witness)
    _note(args, f"wrote a {witness.shape[0]} x {witness.shape[0]} witness to {args.output}")
    if args.factors is not None:
        fact = cpsd.build_cpsd_factorization(c, tol=tol)
        matio.save_cpsd_factorization(args.factors, fact)
        _note(args, f"wrote {2 * fact.n} psd factors of size {fact.dim} to {args.factors}")
    return EXIT_PASS


def _cmd_cpsd_verify(args, tol: ToleranceConfig) -> int:
    witness = _read_real_matrix(args.witness)
    fact = matio.load_cpsd_factorization(args.directory)
    report = cpsd.verify_cpsd_factorization(witness, fact, tol)
    _emit(args, matio.ReportFile.from_report("cpsd verify", report, tol))
    return EXIT_PASS if report.passed else EXIT_FAIL


def _cmd_cpsd_certify(args, tol: ToleranceConfig) -> int:
    c = _read_real_matrix(args.matrix)
    cert = cpsd.certify_lower_bound(c, tol)
    checks = (
        CheckResult("rank", True, 0.0, value=cert.rank),
        CheckResult("is_extreme", cert.is_extreme, 0.0, note="bound valid only for extreme input"),
        CheckResult(
            "cpsd_rank_lower_bound",
            cert.is_extreme,
            0.0,
            note="no bound claimed" if cert.lower_bound is None else "",
            value=cert.lower_bound,
        ),
        CheckResult("construction_dim", True, 0.0, value=cert.construction_dim),
    )
    report = VerificationReport(checks)
    _emit(args, matio.ReportFile.from_report("cpsd certify", report, tol, passed=cert.is_extreme))
    return EXIT_PASS if cert.is_extreme else EXIT_FAIL


def _cmd_cpsd_extract(args, tol: ToleranceConfig) -> int:
    fact = matio.load_cpsd_factorization(args.directory)
    mf, report = cpsd.extract_matrix_factorization(fact, tol)
    matio.save_matrix_factorization(args.output, mf)
    _emit(args, matio.ReportFile.from_report("cpsd extract", report, tol))
    return EXIT_PASS if report.passed else EXIT_FAIL


# ---------------------------------------------------------------- quantum


def _cmd_quantum_rep(args, tol: ToleranceConfig) -> int:
    c = _read_real_matrix(args.matrix)
    rows = _read_real_matrix(args.gram[0])
    cols = _read_real_matrix(args.gram[1])
    rep = quantum.build_tensor_rep(c, elliptope.CSystem(rows, cols), tol)
    matio.save_tensor_rep(args.output, rep)
    _note(args, f"wrote a representation of local dimension {rep.local_dim} to {args.output}")
    return EXIT_PASS


def _cmd_quantum_eval(args, tol: ToleranceConfig) -> int:
    rep = matio.load_tensor_rep(args.directory)
    block = quantum.eval_correlations(rep, tol)
    print(matio.matrix_text(block))
    return EXIT_PASS


def _cmd_quantum_reduce(args, tol: ToleranceConfig) -> int:
    rep = matio.load_tensor_rep(args.directory)
    reduced = quantum.reduce_rank_one_rep(rep, tol)
    matio.save_tensor_rep(args.output, reduced)
    _note(
        args,
        f"reduced local dimension {rep.local_dim} -> {reduced.local_dim}, wrote {args.output}",
    )
    return EXIT_PASS


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corrfact",
        description="Correlation-matrix factorizations, generator families, and cpsd witness certificates.",
    )
    parser.add_argument("--eq-tol", type=float, default=DEFAULT_TOL.eq_tol, help="entrywise equality threshold")
    parser.add_argument("--psd-tol", type=float, default=DEFAULT_TOL.psd_tol, help="eigenvalue negativity threshold")
    parser.add_argument("--rank-tol", type=float, default=DEFAULT_TOL.rank_tol, help="relative singular-value cutoff")
    parser.add_argument("--seed", type=int, default=None, help="seed for randomized verifications")
    parser.add_argument("--quiet", action="store_true", help="one-line summaries instead of report JSON")
    groups = parser.add_subparsers(dest="group", required=True)

    g_clifford = groups.add_parser("clifford", help="generator families")
    sub = g_clifford.add_subparsers(dest="action", required=True)
    p = sub.add_parser("gen", help="emit generators plus a manifest")
    p.add_argument("-r", "--rank", type=int, required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(handler=_cmd_clifford_gen)
    p = sub.add_parser("verify", help="check the anticommutation relations of a generator set")
    p.add_argument("directory")
    p.set_defaults(handler=_cmd_clifford_verify)

    g_elliptope = groups.add_parser("elliptope", help="correlation matrices")
    sub = g_elliptope.add_subparsers(dest="action", required=True)
    p = sub.add_parser("check-extreme", help="extremality rank test")
    p.add_argument("matrix")
    p.set_defaults(handler=_cmd_elliptope_check_extreme)
    p = sub.add_parser("gen-extreme", help="extreme point of rank r, size r(r+1)/2")
    p.add_argument("-r", "--rank", type=int, required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(handler=_cmd_elliptope_gen_extreme)
    p = sub.add_parser("rmax", help="largest r with r(r+1)/2 <= n")
    p.add_argument("-n", type=int, required=True)
    p.set_defaults(handler=_cmd_elliptope_rmax)

    g_factorize = groups.add_parser("factorize", help="matrix factorizations")
    sub = g_factorize.add_subparsers(dest="action", required=True)
    p = sub.add_parser("build", help="factor a correlation matrix (default when a file is given)")
    p.add_argument("matrix")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--form", choices=("b", "c"), default="c")
    p.set_defaults(handler=_cmd_factorize_build)
    p = sub.add_parser("verify", help="verify a stored factorization against a matrix")
    p.add_argument("matrix")
    p.add_argument("directory")
    p.add_argument("--mode", choices=("i", "i-prime", "b-form"), default="i")
    p.set_defaults(handler=_cmd_factorize_verify)
    p = sub.add_parser("clifford-identity", help="random-direction and anticommutator checks")
    p.add_argument("block")
    p.add_argument("directory")
    p.add_argument("--trials", type=int, default=100)
    p.set_defaults(handler=_cmd_factorize_identity, needs_seed=True)

    g_cpsd = groups.add_parser("cpsd", help="witness matrices and psd-factor families")
    sub = g_cpsd.add_subparsers(dest="action", required=True)
    p = sub.add_parser("build-pc", help="assemble the outcome-block witness")
    p.add_argument("matrix")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--factors", default=None, help="also write the generator-based factor family here")
    p.set_defaults(handler=_cmd_cpsd_build_pc)
    p = sub.add_parser("verify", help="verify a psd-factor family against a witness")
    p.add_argument("witness")
    p.add_argument("directory")
    p.set_defaults(handler=_cmd_cpsd_verify)
    p = sub.add_parser("certify", help="dimension lower-bound certificate")
    p.add_argument("matrix")
    p.set_defaults(handler=_cmd_cpsd_certify)
    p = sub.add_parser("extract", help="weighted factorization from a psd-factor family")
    p.add_argument("directory")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(handler=_cmd_cpsd_extract)

    g_quantum = groups.add_parser("quantum", help="tensor-product representations")
    sub = g_quantum.add_subparsers(dest="action", required=True)
    p = sub.add_parser("rep", help="build a representation from a unit-vector system")
    p.add_argument("matrix")
    p.add_argument("--gram", nargs=2, metavar=("U", "V"), required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(handler=_cmd_quantum_rep)
    p = sub.add_parser("eval", help="evaluate the realized correlations")
    p.add_argument("directory")
    p.set_defaults(handler=_cmd_quantum_eval)
    p = sub.add_parser("reduce", help="compress a rank-one state to diagonal Schmidt form")
    p.add_argument("directory")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(handler=_cmd_quantum_reduce)

    return parser


_parser = functools.lru_cache(maxsize=1)(build_parser)
"""The parser run() uses, built on first use; parsing leaves a parser unchanged, so one serves every call."""


def run(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parser().parse_args(_normalize_argv(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        tol = ToleranceConfig(eq_tol=args.eq_tol, psd_tol=args.psd_tol, rank_tol=args.rank_tol)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if getattr(args, "needs_seed", False) and args.seed is None:
        print("error: this command requires --seed for reproducible reports", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.handler(args, tol)
    except (MatrixFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalContractError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONTRACT


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
