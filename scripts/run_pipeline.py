#!/usr/bin/env python3
"""End-to-end walkthrough for one rank: build an extreme correlation matrix,
factor it, certify the witness lower bound, extract involutions back out of
the psd-factor family, and realize the correlations as a two-party strategy.

Usage: python3 scripts/run_pipeline.py -r 3 [--seed 7]

Exits 1 when a verifier fails or a round trip misses eq_tol, 0 otherwise.
"""

import argparse
import sys

import numpy as np

from corrfact import (
    CSystem,
    build_cpsd_factorization,
    build_pc,
    build_tensor_rep,
    certify_lower_bound,
    check_extreme,
    complete,
    eval_correlations,
    extract_matrix_factorization,
    factorize_clifford,
    gen_extreme_lex,
    gram_factors,
    project_bipartite,
    recover_correlation,
    to_form_c,
    verify_clifford_identity,
    verify_cpsd_factorization,
)
from corrfact.linalg import DEFAULT_TOL


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("-r", "--rank", type=int, default=3)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    e, vectors = gen_extreme_lex(args.rank)
    n = e.shape[0]
    failures = []

    def within_tol(name: str, deviation: float) -> None:
        if not deviation <= DEFAULT_TOL.eq_tol:
            failures.append(name)

    ext = check_extreme(e)
    print(f"extreme point: size {n}, rank {ext.rank}, rank(E o E) {ext.hadamard_rank} "
          f"(required {ext.required_rank}), extreme={ext.is_extreme}")

    mf = to_form_c(factorize_clifford(e))
    roundtrip = np.max(np.abs(recover_correlation(mf) - e))
    within_tol("factorization roundtrip", roundtrip)
    print(f"weighted factorization: dimension {mf.dim}, roundtrip deviation {roundtrip:.2e}")

    block = e[: ext.rank, : ext.rank]
    identity = verify_clifford_identity(block, mf.x_mats[: ext.rank], trials=100, seed=args.seed)
    if not identity.passed:
        failures.append("anticommutation identity")
    print(f"anticommutation identity: passed={identity.passed}, "
          f"max deviation {identity.max_deviation:.2e}")

    witness = build_pc(e)
    family = build_cpsd_factorization(e)
    verdict = verify_cpsd_factorization(witness, family)
    if not verdict.passed:
        failures.append("witness factors")
    cert = certify_lower_bound(e)
    print(f"witness: size {witness.shape[0]}, factor family of size {family.dim}, "
          f"verified={verdict.passed} (dev {verdict.max_deviation:.2e})")
    print(f"certificate: lower bound {cert.lower_bound}, construction dimension "
          f"{cert.construction_dim} (tight for rank >= 2)")

    extracted, diagnostics = extract_matrix_factorization(family)
    doubled = np.block([[e, e], [e, e]])
    dev = np.max(np.abs(recover_correlation(extracted) - doubled))
    if not diagnostics.passed:
        failures.append("extraction diagnostics")
    within_tol("doubled-completion roundtrip", dev)
    print(f"extraction: involution diagnostics passed={diagnostics.passed}, "
          f"doubled-completion deviation {dev:.2e}")

    # two-party realization of the top-right block of the completion
    half = n // 2 or 1
    c = project_bipartite(e, half, n - half) if n > 1 else e.copy()
    system = CSystem(gram_factors(e)[:half], gram_factors(e)[half:] if n > 1 else gram_factors(e))
    rep = build_tensor_rep(c, system)
    realized = eval_correlations(rep)
    block_dev = np.max(np.abs(realized - c))
    within_tol("strategy block", block_dev)
    print(f"strategy: local dimension {rep.local_dim}, "
          f"block deviation {block_dev:.2e}")
    completion = complete(system)
    print(f"completion of the block has size {completion.shape[0]} and "
          f"extreme={check_extreme(completion).is_extreme}")
    if failures:
        print(f"failed: {', '.join(failures)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
