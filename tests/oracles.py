"""Reference code shared by several test modules; not part of the package.

`solve` is the earlier `linalg.solve`, kept verbatim: one solution of
m x = rhs with every free variable zero, or None for an inconsistent
system.  The package no longer solves linear systems this way (the
cached class echelon of `cohomology` returns coboundary preimages), so
it lives here only, as the oracle for those preimages and for the
classes they came with.
"""

from fractions import Fraction
from typing import Sequence

from leibnizalg.linalg import Echelon, Matrix, Vector, frac, sparse

_ZERO = Fraction(0)


def solve(m: Matrix, rhs: Sequence[Fraction]) -> Vector | None:
    """One solution of m x = rhs with all free variables zero, or None.

    None signals an inconsistent system.  When the system is consistent
    the returned solution is canonical (free coordinates zero).
    """
    if len(rhs) != m.rows:
        raise ValueError("rhs of length %d against %d rows" % (len(rhs), m.rows))
    n = m.cols
    e = Echelon(n + 1, (sparse(row + (b,)) for row, b in zip(m.data, map(frac, rhs))))
    if n in e.held:
        return None
    x = [_ZERO] * n
    for p, row in e.held.items():
        b = row.get(n)
        if b:
            x[p] = Fraction(b, row[p])
    return tuple(x)
