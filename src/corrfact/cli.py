"""Command-line front end: one command table, and one dispatcher that prints reports.

`COMMANDS` is the one place a command is defined: each group maps to its
help and its actions, each action to its help, its handler and its
arguments.  `build_parser()` builds argparse from that table and from
`GLOBALS`, and the `factorize E.json -o DIR` shorthand reads its options
and actions from the same two tables.  A handler reads its inputs, calls
the library and writes its artifacts; it returns its VerificationReport,
or None once its artifacts are written.  run() alone names the command,
prints the report JSON (or a one-line summary with ``--quiet``) and picks
the exit code.

Exit codes: 0 pass/success, 1 verification failed, 2 usage or parse error,
3 numerical precondition or invariant violation.
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
from .report import CheckResult, VerificationReport, report_json

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CONTRACT = 3

_SEEDED = "factorize clifford-identity"
"""The one command whose report depends on --seed: it requires one, and its report records it."""


def _note(args, message: str) -> None:
    if not args.quiet:
        print(message)


def _read_real_matrix(path) -> np.ndarray:
    m = matio.read_matrix(path)
    if np.iscomplexobj(m):
        if m.size and float(np.max(np.abs(m.imag))) > 0.0:
            raise MatrixFormatError(f"{path}: expected a real matrix")
        m = m.real
    return m


# ---------------------------------------------------------------- clifford


def _cmd_clifford_gen(args, tol: ToleranceConfig) -> None:
    rep = clifford.gamma_generators(args.rank)
    matio.save_generators(args.output, rep.generators, rep.rank)
    _note(args, f"wrote {rep.rank} generators of size {rep.rep_dim} to {args.output}")


def _cmd_clifford_verify(args, tol: ToleranceConfig) -> VerificationReport:
    return clifford.verify_clifford_relations(matio.load_generators(args.directory), tol)


# ---------------------------------------------------------------- elliptope


def _rank_gap(ext) -> float:
    """|binomial(rank + 1, 2) - Hadamard rank| of a failed rank test; 0.0 for extreme input."""
    return 0.0 if ext.is_extreme else abs(ext.rank * (ext.rank + 1) // 2 - ext.hadamard_rank)


def _cmd_elliptope_check_extreme(args, tol: ToleranceConfig) -> VerificationReport:
    ext = elliptope.check_extreme(_read_real_matrix(args.matrix), tol)
    gap = _rank_gap(ext)
    return VerificationReport((
        CheckResult("rank", True, 0.0, value=ext.rank),
        CheckResult("hadamard_rank", True, 0.0, value=ext.hadamard_rank),
        CheckResult("required_rank", True, 0.0, value=ext.required_rank),
        CheckResult("is_extreme", ext.is_extreme, gap, note=f"sv gaps {ext.sv_gap:.3g} / {ext.hadamard_sv_gap:.3g}"),
    ))


def _cmd_elliptope_gen_extreme(args, tol: ToleranceConfig) -> None:
    matrix, _ = elliptope.gen_extreme_lex(args.rank)
    matio.write_matrix(args.output, matrix)
    _note(args, f"wrote a {matrix.shape[0]} x {matrix.shape[0]} extreme point to {args.output}")


def _cmd_elliptope_rmax(args, tol: ToleranceConfig) -> None:
    print(elliptope.r_max(args.n))


# ---------------------------------------------------------------- factorize


def _cmd_factorize_build(args, tol: ToleranceConfig) -> None:
    fb = factorization.factorize_clifford(_read_real_matrix(args.matrix), tol=tol)
    if args.form == "b":
        matio.save_form_b(args.output, fb)
    else:
        matio.save_matrix_factorization(args.output, factorization.to_form_c(fb))
    _note(args, f"wrote a form-{args.form} factorization of dimension {fb.dim} to {args.output}")


def _cmd_factorize_verify(args, tol: ToleranceConfig) -> VerificationReport:
    e = _read_real_matrix(args.matrix)
    if args.mode == "b-form":
        fact = matio.load_form_b(args.directory)
    else:
        fact = matio.load_matrix_factorization(args.directory)
    return factorization.verify_factorization(e, fact, tol, mode=args.mode)


def _cmd_factorize_identity(args, tol: ToleranceConfig) -> VerificationReport:
    block = _read_real_matrix(args.block)
    mf = matio.load_matrix_factorization(args.directory)
    n = block.shape[0]
    if n > mf.x_mats.shape[0]:
        raise NumericalContractError(f"block size {n} exceeds the {mf.x_mats.shape[0]} stored involutions")
    return factorization.verify_clifford_identity(block, mf.x_mats[:n], trials=args.trials, seed=args.seed, tol=tol)


# ---------------------------------------------------------------- cpsd


def _cmd_cpsd_build_pc(args, tol: ToleranceConfig) -> None:
    c = _read_real_matrix(args.matrix)
    witness = cpsd.build_pc(c, tol)
    matio.write_matrix(args.output, witness)
    _note(args, f"wrote a {witness.shape[0]} x {witness.shape[0]} witness to {args.output}")
    if args.factors is not None:
        fact = cpsd.build_cpsd_factorization(c, tol=tol)
        matio.save_cpsd_factorization(args.factors, fact)
        _note(args, f"wrote {2 * fact.n} psd factors of size {fact.dim} to {args.factors}")


def _cmd_cpsd_verify(args, tol: ToleranceConfig) -> VerificationReport:
    witness = _read_real_matrix(args.witness)
    return cpsd.verify_cpsd_factorization(witness, matio.load_cpsd_factorization(args.directory), tol)


def _cmd_cpsd_certify(args, tol: ToleranceConfig) -> VerificationReport:
    cert = cpsd.certify_lower_bound(_read_real_matrix(args.matrix), tol)
    bound_note = "no bound claimed" if cert.lower_bound is None else ""
    gap = _rank_gap(cert)
    return VerificationReport((
        CheckResult("rank", True, 0.0, value=cert.rank),
        CheckResult("is_extreme", cert.is_extreme, gap, note="bound valid only for extreme input"),
        CheckResult("cpsd_rank_lower_bound", cert.is_extreme, gap, note=bound_note, value=cert.lower_bound),
        CheckResult("construction_dim", True, 0.0, value=cert.construction_dim),
    ))


def _cmd_cpsd_extract(args, tol: ToleranceConfig) -> VerificationReport:
    mf, report = cpsd.extract_matrix_factorization(matio.load_cpsd_factorization(args.directory), tol)
    matio.save_matrix_factorization(args.output, mf)
    return report


# ---------------------------------------------------------------- quantum


def _cmd_quantum_rep(args, tol: ToleranceConfig) -> None:
    c = _read_real_matrix(args.matrix)
    rows, cols = (_read_real_matrix(path) for path in args.gram)
    rep = quantum.build_tensor_rep(c, elliptope.CSystem(rows, cols), tol)
    matio.save_tensor_rep(args.output, rep)
    _note(args, f"wrote a representation of local dimension {rep.local_dim} to {args.output}")


def _cmd_quantum_eval(args, tol: ToleranceConfig) -> None:
    print(matio.matrix_text(quantum.eval_correlations(matio.load_tensor_rep(args.directory), tol)))


def _cmd_quantum_reduce(args, tol: ToleranceConfig) -> None:
    rep = matio.load_tensor_rep(args.directory)
    reduced = quantum.reduce_rank_one_rep(rep, tol)
    matio.save_tensor_rep(args.output, reduced)
    _note(args, f"reduced local dimension {rep.local_dim} -> {reduced.local_dim}, wrote {args.output}")


# ---------------------------------------------------------------- command table


def _int_at_least(low: int):
    """An argparse type for integers no less than `low`; others exit 2 with argparse's message."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


GLOBALS = {
    "--eq-tol": dict(type=float, default=DEFAULT_TOL.eq_tol, help="entrywise equality threshold"),
    "--psd-tol": dict(type=float, default=DEFAULT_TOL.psd_tol, help="eigenvalue negativity threshold"),
    "--rank-tol": dict(type=float, default=DEFAULT_TOL.rank_tol, help="relative singular-value cutoff"),
    "--seed": dict(type=int, default=None, help="seed for randomized verifications"),
    "--quiet": dict(action="store_true", help="one-line summaries instead of report JSON"),
}
"""The options given before the group, in --help order: flag -> add_argument options."""

# each argument: (flags, add_argument options)
_RANK = ("-r", "--rank"), dict(type=_int_at_least(1), required=True)
_OUTPUT = ("-o", "--output"), dict(required=True)
_MATRIX, _DIRECTORY = (("matrix",), {}), (("directory",), {})
_BLOCK, _WITNESS = (("block",), {}), (("witness",), {})
_N = ("-n",), dict(type=_int_at_least(1), required=True)
_FORM = ("--form",), dict(choices=("b", "c"), default="c")
_MODE = ("--mode",), dict(choices=("i", "i-prime", "b-form"), default="i")
_TRIALS = ("--trials",), dict(type=_int_at_least(0), default=100)
_FACTORS = ("--factors",), dict(help="also write the generator-based factor family here")
_GRAM = ("--gram",), dict(nargs=2, metavar=("U", "V"), required=True)

COMMANDS = {
    "clifford": ("generator families", {
        "gen": ("emit generators plus a manifest", _cmd_clifford_gen, (_RANK, _OUTPUT)),
        "verify": ("check the anticommutation relations of a generator set", _cmd_clifford_verify, (_DIRECTORY,)),
    }),
    "elliptope": ("correlation matrices", {
        "check-extreme": ("extremality rank test", _cmd_elliptope_check_extreme, (_MATRIX,)),
        "gen-extreme": ("extreme point of rank r, size r(r+1)/2", _cmd_elliptope_gen_extreme, (_RANK, _OUTPUT)),
        "rmax": ("largest r with r(r+1)/2 <= n", _cmd_elliptope_rmax, (_N,)),
    }),
    "factorize": ("matrix factorizations", {
        "build": ("factor a correlation matrix (default when a file is given)", _cmd_factorize_build,
                  (_MATRIX, _OUTPUT, _FORM)),
        "verify": ("verify a stored factorization against a matrix", _cmd_factorize_verify,
                   (_MATRIX, _DIRECTORY, _MODE)),
        "clifford-identity": ("random-direction and anticommutator checks", _cmd_factorize_identity,
                              (_BLOCK, _DIRECTORY, _TRIALS)),
    }),
    "cpsd": ("witness matrices and psd-factor families", {
        "build-pc": ("assemble the outcome-block witness", _cmd_cpsd_build_pc, (_MATRIX, _OUTPUT, _FACTORS)),
        "verify": ("verify a psd-factor family against a witness", _cmd_cpsd_verify, (_WITNESS, _DIRECTORY)),
        "certify": ("dimension lower-bound certificate", _cmd_cpsd_certify, (_MATRIX,)),
        "extract": ("weighted factorization from a psd-factor family", _cmd_cpsd_extract, (_DIRECTORY, _OUTPUT)),
    }),
    "quantum": ("tensor-product representations", {
        "rep": ("build a representation from a unit-vector system", _cmd_quantum_rep, (_MATRIX, _GRAM, _OUTPUT)),
        "eval": ("evaluate the realized correlations", _cmd_quantum_eval, (_DIRECTORY,)),
        "reduce": ("compress a rank-one state to diagonal Schmidt form", _cmd_quantum_reduce, (_DIRECTORY, _OUTPUT)),
    }),
}
"""Every command: group -> (help, action -> (help, handler, arguments in --help order))."""


def _normalize_argv(argv: list[str]) -> list[str]:
    """Allow `factorize E.json -o DIR` as sugar for `factorize build E.json -o DIR`."""
    takes_value = {flag: "action" not in options for flag, options in GLOBALS.items()}
    i = 0
    while i < len(argv) and (argv[i] in takes_value or argv[i].startswith("--") and "=" in argv[i]):
        i += 2 if takes_value.get(argv[i]) else 1
    if argv[i : i + 1] == ["factorize"] and i + 1 < len(argv):
        if argv[i + 1] not in COMMANDS["factorize"][1] and argv[i + 1] not in ("-h", "--help"):
            return argv[: i + 1] + ["build"] + argv[i + 1 :]
    return argv


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corrfact",
        description="Correlation-matrix factorizations, generator families, and cpsd witness certificates.",
    )
    for flag, options in GLOBALS.items():
        parser.add_argument(flag, **options)
    groups = parser.add_subparsers(dest="group", required=True)
    for group, (group_help, actions) in COMMANDS.items():
        sub = groups.add_parser(group, help=group_help).add_subparsers(dest="action", required=True)
        for action, (action_help, handler, arguments) in actions.items():
            p = sub.add_parser(action, help=action_help)
            for flags, options in arguments:
                p.add_argument(*flags, **options)
            p.set_defaults(handler=handler)
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
    command = f"{args.group} {args.action}"
    if command == _SEEDED and args.seed is None:
        print("error: this command requires --seed for reproducible reports", file=sys.stderr)
        return EXIT_USAGE
    try:
        report = args.handler(args, tol)
        if report is None:
            return EXIT_PASS
        if args.quiet:
            print(f"{'PASS' if report.passed else 'FAIL'} {command} max_deviation={report.max_deviation:.6e}")
        else:
            record = report_json(command, report, tol, args.seed if command == _SEEDED else None)
            print(json.dumps(record, indent=2, allow_nan=False))
        return EXIT_PASS if report.passed else EXIT_FAIL
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
