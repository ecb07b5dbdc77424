"""`image_test` at ell >= 5 and `prune_epsilon` as they ran before the scans
stopped at their witnesses: each reads every good prime of the table up to X
through its `good` dict, one Legendre symbol per prime.  Kept unchanged as an
independent oracle for `ellgal.galois`."""

import math

from ellgal.arith import kronecker
from ellgal.galois import EpsilonCandidateSet, ImageReport, InsufficientSamples, _det_surjective


def image_test(red, table, ell, X):
    """The certificate scan at a prime ell >= 5 over every good p <= X."""
    cert_a = cert_b = cert_c = None  # witness primes
    samples = 0
    dets = set()
    nonzero_traces = 0
    for p in table.good_primes():
        if p > X or p == ell:
            continue
        ap = table.good[p] % ell
        samples += 1
        dets.add(p % ell)
        disc = (ap * ap - 4 * p) % ell
        disc_symbol = kronecker(disc, ell)
        if ap != 0:
            nonzero_traces += 1
            if disc_symbol == -1 and cert_a is None:
                cert_a = p
            if disc_symbol == 1 and cert_b is None:
                cert_b = p
            u = ap * ap * pow(p, -1, ell) % ell
            if u not in (0, 1, 2, 4) and (u * u - 3 * u + 1) % ell != 0 and cert_c is None:
                cert_c = p
    det_ok = _det_surjective(dets, ell)
    certs = {
        "nonsquareDisc": cert_a,
        "squareDisc": cert_b,
        "exceptionalExcluded": cert_c,
        "detSurjective": det_ok,
    }
    if cert_a and cert_b and cert_c and det_ok:
        return ImageReport(ell, "surjective", X, certs, None, samples)
    if samples < 10:
        raise InsufficientSamples(f"only {samples} good primes below {X}")
    obstruction = None
    if nonzero_traces == 0:
        obstruction = "traceZero"
    elif cert_a is None:
        obstruction = "reducible"
    elif cert_b is None:
        obstruction = "nonsplitCartanNormalizer"
    elif cert_c is None:
        obstruction = "exceptional"
    if samples >= 30 and obstruction is not None:
        return ImageReport(ell, "nonsurjectiveWitnessed", X, certs, obstruction, samples)
    return ImageReport(ell, "undetermined", X, certs, obstruction, samples)


def prune_epsilon(cands, table, ell):
    """Keep moduli m with: chi_m(p) = -1 implies ell | a_p, over every good p in the table."""
    survivors = []
    counts = {}
    for m in cands.candidates:
        if m > 0 and math.isqrt(m) ** 2 == m:
            continue  # square modulus: trivial character, can never be epsilon
        tested = 0
        alive = True
        for p in table.good_primes():
            if p == ell:
                continue
            if kronecker(m, p) == -1:
                if table.good[p] % ell != 0:
                    alive = False
                    break
                tested += 1
        if alive:
            survivors.append(m)
            counts[m] = tested
    return EpsilonCandidateSet(cands.ell, cands.support, tuple(survivors), counts)
