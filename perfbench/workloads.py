"""Seeded inputs, pipelines and output oracle for the benchmark workloads.

Every call into corrfact goes through a module attribute (``cpsd.build_pc``,
``cli.run``, ...) so that the tracer in ``spans.py`` can wrap it from the
outside.  A pipeline returns the list of modules whose output missed the
oracle; an empty list means every output was correct.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from corrfact import cli, clifford, cpsd, elliptope, factorization, matio, quantum
from corrfact.linalg import DEFAULT_TOL

EQ_TOL = DEFAULT_TOL.eq_tol
IDENTITY_TRIALS = 100
CLI_MODULES = {"factorize": "factorization"}


@dataclass(frozen=True)
class Workload:
    """One set of inputs: which ranks, how many seeded points, which front end.

    ``mixed`` alternates extreme points (n = binom(r+1, 2)) with non-extreme
    ones (n = binom(r+1, 2) - 1); ``lex`` adds the lexicographic extreme
    point of each rank; ``via_cli`` runs the pipeline as CLI subcommands on
    files instead of library calls.
    """

    name: str
    why: str
    ranks: tuple[int, ...]
    points: int
    mixed: bool = False
    lex: bool = False
    via_cli: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ladder_high",
            "library pipeline on rank-12 extreme points (r=12, n=78, d=64): dense work and "
            "per-entry Python loops in the verifiers dominate; matio and cli are bypassed",
            ranks=(12,),
            points=8,
            lex=True,
        ),
        Workload(
            "many_small",
            "library pipeline on 300 points of rank 2-6 (n<=21, d<=8), half of them "
            "non-extreme: per-call overhead and validation dominate, not kernels",
            ranks=(2, 3, 4, 5, 6),
            points=300,
            mixed=True,
        ),
        Workload(
            "cli_files",
            "every CLI subcommand through corrfact.cli.run on rank-10 extreme points "
            "(r=10, n=55, d=32) stored as JSON files: matio reads and writes beside the kernels",
            ranks=(10,),
            points=4,
            via_cli=True,
        ),
    )
}


@dataclass
class Case:
    """One input point.  ``files`` and ``out`` are set for CLI workloads only."""

    matrix: np.ndarray
    rank: int
    extreme: bool
    seed: int
    files: dict | None = None
    out: Path | None = None

    @property
    def kind(self) -> tuple[int, bool]:
        return self.rank, self.extreme

    @property
    def factor_bytes(self) -> int:
        """Computed size n * 2 * d^2 * 16 of the complex psd-factor tensor."""
        d = 2 ** (self.rank // 2)
        return self.matrix.shape[0] * 2 * d * d * 16


def make_cases(w: Workload, seed: int, workdir: Path | None = None) -> list[Case]:
    """Seeded inputs, each checked against its intended extremality.

    For ``mixed`` workloads the ranks and the extreme/non-extreme flag
    cycle together, so every prefix of the list has nearly the same mix.
    """
    rng = np.random.default_rng(seed)
    cases = []
    for r in w.ranks if w.lex else ():
        e = elliptope.gen_extreme_lex(r)[0]
        if not _classified_as(e, r, True):
            raise RuntimeError(f"gen_extreme_lex({r}) fails the extremality check")
        cases.append(Case(e, r, True, seed))
    for k in range(w.points):
        r = w.ranks[k % len(w.ranks)]
        extreme = not (w.mixed and (k // len(w.ranks)) % 2)
        cases.append(Case(_draw(r, extreme, rng), r, extreme, seed + k + 1))
    if w.via_cli:
        for k, case in enumerate(cases):
            _write_cli_inputs(case, workdir / f"case{k:03d}")
    return cases


def _classified_as(e: np.ndarray, r: int, extreme: bool) -> bool:
    ext = elliptope.check_extreme(e)
    return ext.rank == r and ext.is_extreme == extreme


def _draw(r: int, extreme: bool, rng: np.random.Generator) -> np.ndarray:
    """Random point of rank r, extreme (n = binom(r+1, 2)) or not (one row fewer).

    About one draw in a thousand is so close to degenerate that the rank
    test at the default tolerances puts it in the other class; such a draw
    is replaced by the next one from the same generator.
    """
    n = r * (r + 1) // 2 - (0 if extreme else 1)
    for _ in range(100):
        e = elliptope.random_correlation(n, r, rng)
        if _classified_as(e, r, extreme):
            return e
    raise RuntimeError(f"no draw of rank {r} passed the extremality check (want {extreme})")


def _write_cli_inputs(case: Case, directory: Path) -> None:
    e, r = case.matrix, case.rank
    h = e.shape[0] // 2
    u = elliptope.gram_factors(e)
    inputs = {
        "E": e,
        "A": e[:r, :r],
        "EE": np.block([[e, e], [e, e]]),
        "C": e[:h, h:],
        "U": u[:h],
        "V": u[h:],
    }
    directory.mkdir(parents=True)
    case.files = {}
    for key, m in inputs.items():
        case.files[key] = str(directory / f"{key}.json")
        matio.write_matrix(case.files[key], m)
    case.out = directory / "out"


def reset(case: Case) -> None:
    """Remove a CLI case's outputs so each pipeline starts from its inputs alone."""
    if case.out is not None:
        shutil.rmtree(case.out, ignore_errors=True)
        case.out.mkdir()


def run_pipeline(w: Workload, case: Case, fault: bool = False) -> list[str]:
    """Run one pipeline; return the modules whose outputs missed the oracle.

    With ``fault`` the psd-factor family is corrupted (one factor's sign
    flipped) before it is verified, so the pipeline must fail.
    """
    misses: list[str] = []

    def check(ok, module: str) -> None:
        if not ok:
            misses.append(module)

    if w.via_cli:
        _cli_pipeline(case, check, fault)
    else:
        _library_pipeline(case, check, fault)
    return misses


def _max_dev(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def _library_pipeline(case: Case, check, fault: bool) -> None:
    e, r = case.matrix, case.rank
    n = e.shape[0]
    ext = elliptope.check_extreme(e)
    check(ext.is_extreme == case.extreme and ext.rank == r, "elliptope")

    fb = factorization.factorize_clifford(e)
    mf = factorization.to_form_c(fb)
    check(_max_dev(factorization.recover_correlation(mf), e) <= EQ_TOL, "factorization")
    check(factorization.verify_factorization(e, mf, mode="i").passed, "factorization")
    check(factorization.verify_factorization(e, fb, mode="b-form").passed, "factorization")
    identity = factorization.verify_clifford_identity(
        e[:r, :r], mf.x_mats[:r], trials=IDENTITY_TRIALS, seed=case.seed
    )
    check(identity.passed, "factorization")

    gens = clifford.gamma_generators(r)
    check(clifford.verify_clifford_relations(gens.generators).passed, "clifford")

    witness = cpsd.build_pc(e)
    family = cpsd.build_cpsd_factorization(e)
    if fault:
        mats = family.mats.copy()
        mats[0, 0] *= -1.0
        family = cpsd.CpsdFactorization(mats)
    check(cpsd.verify_cpsd_factorization(witness, family).passed, "cpsd")
    cert = cpsd.certify_lower_bound(e)
    check(cert.lower_bound == (2 ** (r // 2) if case.extreme else None), "cpsd")
    extracted, diagnostics = cpsd.extract_matrix_factorization(family)
    doubled = np.block([[e, e], [e, e]])
    check(diagnostics.passed, "cpsd")
    check(_max_dev(factorization.recover_correlation(extracted), doubled) <= EQ_TOL, "cpsd")

    h = n // 2
    u = elliptope.gram_factors(e)
    block = e[:h, h:]
    rep = quantum.build_tensor_rep(block, elliptope.CSystem(u[:h], u[h:]))
    check(_max_dev(quantum.eval_correlations(rep), block) <= EQ_TOL, "quantum")
    reduced = quantum.reduce_rank_one_rep(rep)
    check(reduced.local_dim <= rep.local_dim, "quantum")


def _cli_pipeline(case: Case, check, fault: bool) -> None:
    f, out, r = case.files, case.out, case.rank

    def run(argv: list[str], passed: bool | None = True) -> str:
        """Run one subcommand; check its exit code (0) and its report's pass field."""
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.run(argv)
        group = next(tok for tok in argv if tok in ("clifford", "elliptope", "factorize", "cpsd", "quantum"))
        module = CLI_MODULES.get(group, group)
        text = stdout.getvalue()
        if code not in (0, 1):
            check(False, "cli")
        elif code != 0 or (passed is not None and json.loads(text)["pass"] is not passed):
            check(False, module)
        return text

    factors = str(out / "cpsd_factors")
    run(["elliptope", "check-extreme", f["E"]])
    run(["factorize", "build", f["E"], "-o", str(out / "form_c")], passed=None)
    run(["factorize", "verify", f["E"], str(out / "form_c")])
    run(["--seed", str(case.seed), "factorize", "clifford-identity", f["A"], str(out / "form_c"),
         "--trials", str(IDENTITY_TRIALS)])
    run(["cpsd", "build-pc", f["E"], "-o", str(out / "PC.json"), "--factors", factors], passed=None)
    if fault:
        _flip_sign(Path(factors) / "factor_01_p.json")
    run(["cpsd", "verify", str(out / "PC.json"), factors])
    report = json.loads(run(["cpsd", "certify", f["E"]]) or "{}")
    bound = next((c.get("value") for c in report.get("details", ()) if c["name"] == "cpsd_rank_lower_bound"), None)
    check(bound == 2 ** (r // 2), "cpsd")
    run(["cpsd", "extract", factors, "-o", str(out / "extracted")])
    run(["factorize", "verify", f["EE"], str(out / "extracted")])
    run(["clifford", "gen", "-r", str(r), "-o", str(out / "generators")], passed=None)
    run(["clifford", "verify", str(out / "generators")])
    run(["quantum", "rep", f["C"], "--gram", f["U"], f["V"], "-o", str(out / "rep")], passed=None)
    realized = run(["quantum", "eval", str(out / "rep")], passed=None)
    block = case.matrix[: case.matrix.shape[0] // 2, case.matrix.shape[0] // 2 :]
    check(realized and _max_dev(_matrix_from_json(realized), block) <= EQ_TOL, "quantum")
    run(["quantum", "reduce", str(out / "rep"), "-o", str(out / "reduced")], passed=None)


def _matrix_from_json(text: str) -> np.ndarray:
    obj = json.loads(text)
    return np.asarray(obj["data"], dtype=float).reshape(obj["rows"], obj["cols"])


def _flip_sign(path: Path) -> None:
    obj = json.loads(path.read_text())
    obj["data"] = [[-re, -im] for re, im in obj["data"]]
    path.write_text(json.dumps(obj))
