"""Mod-ell image diagnostics: certificates, obstructions, and the character prune.

For a generic curve every small ell certifies a full image quickly. The CM
curve of conductor 27 never has a full image: the obstruction is a nonsplit
Cartan normalizer when ell is inert in the CM field and a reducible (split
Cartan) image when ell splits. Exactly the characters cutting out the CM
field survive the divisibility prune.

Run: python3 demos/galois_image_scan.py
"""

from ellgal.curve import WeierstrassModel, trace_table
from ellgal.galois import epsilon_candidates, image_test, prune_epsilon
from ellgal.localdata import global_reduce

X = 3000


def scan(ainvs, ells):
    red = global_reduce(WeierstrassModel(*ainvs))
    table = trace_table(red, X)
    print(f"curve {red.minimal_model.ainvs()}  N = {red.conductor}")
    for ell in ells:
        rep = image_test(red, table, ell, X)
        extra = f" obstruction = {rep.obstruction}" if rep.obstruction else ""
        certs = ",".join(sorted(rep.certificates)) or "-"
        print(f"  ell = {ell:>2}: {rep.verdict:<22} certs = {certs}{extra}")
    return red, table


def main():
    scan((0, 0, 1, -1, 0), [2, 5, 7, 11, 13])
    print()
    red, table = scan((0, 0, 1, 0, 0), [5, 7, 13])
    print()
    cands = epsilon_candidates(red, 5)
    pruned = prune_epsilon(cands, table, 5)
    print(f"epsilon candidates at ell = 5: {len(cands.candidates)} signed moduli, "
          f"support D = {cands.support}")
    print(f"survivors after pruning over good p <= {X}: {pruned.candidates}")
    for m in pruned.candidates:
        print(f"  chi_{m}: verified on {pruned.tested[m]} inert primes")


if __name__ == "__main__":
    main()
