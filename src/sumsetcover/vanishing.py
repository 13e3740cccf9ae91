"""The space of low-degree polynomials that vanish off a set.

Given a set A (the pipeline passes A = S+T) and a total-degree budget d,
the space collects every reduced polynomial of total degree <= d that is
zero at each point outside A.  Each complement point contributes one linear
constraint on the coefficient vector, so a canonical basis falls out of an
exact null-space computation: the constraint matrix has one row per
complement point and one column per monomial of degree <= d.  Its null
space has dimension at least

    (number of monomials of degree <= d) - q^n + |A|,

the counting fact the witness construction leans on.  The constraint matrix
comes from linalg.monomial_table (a row per point), the one builder of
monomial tables, and its null space from linalg.null_space, in whatever
format linalg chose.  The basis is those kernel rows, coefficient rows over
the monomials; the pipeline and the rank audit (summatrix) read them as
such, and nothing here builds a summatrix.Polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass

from .field import DEFAULT_ENUM_CAP, PointSet, complement
from .linalg import monomial_table, null_space
from .monomials import Monomial, enumerate_monomials


@dataclass(frozen=True)
class PolySubspace:
    """A basis of the degree-<= d polynomials vanishing off a set of points:
    each of `rows` lists one's coefficients over `monos`, in graded order."""

    q: int
    n: int
    degree: int
    monos: tuple[Monomial, ...]
    rows: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def ambient_dim(self) -> int:
        return len(self.monos)


def build_vanishing_space(
    sums: PointSet, degree: int, *, cap: int = DEFAULT_ENUM_CAP
) -> PolySubspace:
    """Canonical basis of the degree-<= d polynomials vanishing off sums.

    Basis rows come from the reduced row echelon form of the constraint
    system, one per free monomial column, so repeated runs agree exactly.
    """
    q, n = sums.q, sums.n
    outside = complement(sums, cap=cap).ordered()
    monos = enumerate_monomials(q, n, degree, cap=cap)
    table = monomial_table(monos, [p.coords for p in outside], q, by_point=True)
    rows = tuple(map(tuple, null_space(table, len(monos), q)))
    return PolySubspace(q, n, degree, tuple(monos), rows)
