"""Certificates: exact witnesses, exact scalings, bounded search.

Three kinds of certificate, none of them approximate:
  1. a rational change of basis, verified entry by entry;
  2. a scaling e_k -> alpha**w_k e_k for witnesses that need a root,
     checked constant by constant for every root alpha of t**d - r;
  3. a fingerprint difference, which certifies NON-isomorphism.
Bounded random search returns whichever it finds first and says
"undetermined" otherwise instead of guessing.
"""


from leibnizalg import catalog
from leibnizalg.core import algebra_from_products
from leibnizalg.isomorphism import (
    compare_fingerprints,
    fingerprint,
    search_isomorphism,
    verify_isomorphism,
    verify_scaling,
)
from leibnizalg.linalg import Matrix


def main():
    print("1. exact witness: scaling normalizes the last parameter")
    a = catalog.make("F1param", 6, theta=1)
    b = catalog.make("F1param", 6, theta=8)
    p = Matrix([[2, 0, 0, 0, 0, 0],
                [0, 2, 0, 0, 0, 0],
                [0, 0, 4, 0, 0, 0],
                [0, 0, 0, 8, 0, 0],
                [0, 0, 0, 0, 16, 0],
                [0, 0, 0, 0, 0, 32]])
    print("   theta 8 -> 1 via diag(2,2,4,8,16,32):", verify_isomorphism(a, b, p).ok)

    print("2. exact scaling: theta 2 -> 1 needs a cube root")
    c = catalog.make("F1param", 6, theta=2)
    check = verify_scaling(a, c, (1, 1, 2, 3, 4, 5), 3, 2)
    print("   e1, e2 -> alpha e1, alpha e2, e_k -> alpha**(k-1) e_k for every root of")
    print("   alpha**3 = 2, certified without approximating alpha:", check.ok)
    verdict = compare_fingerprints(fingerprint(a), fingerprint(c)).verdict
    print("   fingerprints cannot separate the pair either: %s" % verdict)

    print("3. search: the chain written backwards")
    backwards = algebra_from_products(3, {(3, 3): {2: 1}, (2, 3): {1: 1}})
    result = search_isomorphism(catalog.make("NF", 3), backwards)
    print("   status %s after %d trials" % (result.status, result.trials))
    if result.matrix is not None:
        ok = verify_isomorphism(catalog.make("NF", 3), backwards, result.matrix).ok
        print("   returned matrix re-verified:", ok)

    print("4. search on genuinely different algebras")
    result = search_isomorphism(catalog.make("NF", 4), catalog.make("F1", 4))
    print("   status %s, separating invariant: %s" % (result.status, result.invariant))


if __name__ == "__main__":
    main()
