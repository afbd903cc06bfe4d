"""Certified isomorphism testing between presentations.

Two presentations can look different and still give isomorphic rings:
base change C on the radical generators, recombination B of the
structural products, a tail permutation, and a global Frobenius power
all preserve the ring.  The tester searches that group and returns a
witness, and the witness is checked independently of the search.
"""

import numpy as np

from ringforge import (GF, RingSpec, equivalent_spec, iso_test,
                       verify_witness)


def spec_over(F, mats, lam=0):
    mats = np.asarray(mats, dtype=np.int64)
    if mats.ndim == 2:
        mats = mats[None]
    t = mats.shape[0]
    s = mats.shape[1]
    return RingSpec(F, s=s, t=t, lam=lam, matrices=mats,
                    sigma=(0,) * s, theta=(0,) * (t + lam))


def main():
    F = GF(3)

    # congruent structural matrices give isomorphic rings
    left = spec_over(F, [[1, 0], [0, 2]])
    right = spec_over(F, [[2, 0], [0, 1]])
    w = iso_test(left, right)
    print("diag(1,2) vs diag(2,1) over GF(3):")
    print(f"  witness: sigma={w.sigma}, C={w.C.tolist()},"
          f" B={w.B.tolist()}, v_perm={w.v_perm}")
    print(f"  verify_witness: {verify_witness(left, right, w)}")
    print(f"  exhaustive recheck on all {left.order} elements:"
          f" {verify_witness(left, right, w, exhaustive=True)}")
    print()

    # different congruence classes: no witness exists
    other = spec_over(F, [[0, 1], [2, 0]])
    print(f"diag(1,2) vs [[0,1],[2,0]]: iso_test -> {iso_test(left, other)}")
    print()

    # a presentation scrambled by a random equivalence comes back
    base = spec_over(F, [[[1, 0], [1, 2]], [[0, 1], [0, 0]]], lam=1)
    C = np.array([[1, 2], [1, 0]])
    B = np.array([[2, 1], [0, 1]])
    scrambled = equivalent_spec(base, C, B=B)
    w2 = iso_test(base, scrambled)
    print("t = 2 presentation vs its scramble by C, B:")
    print(f"  witness found: C={w2.C.tolist()}, B={w2.B.tolist()}")
    print(f"  verify_witness: {verify_witness(base, scrambled, w2)}")
    print()

    # over GF(4) with s = t = 1 the scalar matrices can differ by a unit;
    # their spans are equal, so the orbit search stops at its start with
    # C = [[1]], and the witness carries the balancing B entry
    F4 = GF(2, 2)
    a = RingSpec(F4, 1, 1, 0, np.array([[[2]]]), (0,), (0,))
    d = RingSpec(F4, 1, 1, 0, np.array([[[3]]]), (0,), (0,))
    w3 = iso_test(a, d)
    print("GF(4) scalars a vs a+1 (s = t = 1):")
    print(f"  witness: C={w3.C.tolist()}, B={w3.B.tolist()},"
          f" verified {verify_witness(a, d, w3)}")


if __name__ == "__main__":
    main()
