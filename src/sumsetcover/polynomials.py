"""Reduced multivariate polynomials over F_q.

A polynomial is a map {exponent tuple: nonzero coefficient} with every
exponent at most q-1 per variable.  Reduced polynomials represent functions
F_q^n -> F_q uniquely, which is what makes the vanishing-space constructions
downstream exact.  Instances are treated as immutable.  `poly_from_terms`
builds one from any term map, checking the exponents and reducing the
coefficients; `polys_from_rows` reads rows already reduced mod q.

`value_table` evaluates polynomials through linalg's one builder of
monomial tables, `linalg.monomial_table`, and returns a linalg table.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Mapping, Sequence

from .errors import DimensionMismatch
from .field import FieldVector
from .linalg import Rows, combine_rows, monomial_table
from .monomials import Monomial, eval_monomial


@dataclass(frozen=True)
class Polynomial:
    q: int
    n: int
    terms: dict[Monomial, int]


def _check_monomials(q: int, n: int, monos: Iterable[Monomial]) -> None:
    for mono in monos:
        if len(mono) != n:
            raise ValueError(f"exponent tuple {mono} has length != {n}")
        if any(e < 0 or e > q - 1 for e in mono):
            raise ValueError(f"exponent tuple {mono} not reduced for q={q}")


def poly_from_terms(q: int, n: int, terms: Mapping[Monomial, int]) -> Polynomial:
    """Normalize a term map: reduce coefficients mod q and drop zeros."""
    _check_monomials(q, n, terms)
    clean: dict[Monomial, int] = {}
    for mono, coeff in terms.items():
        c = coeff % q
        if c:
            clean[mono] = c
    return Polynomial(q, n, clean)


def polys_from_rows(
    q: int, n: int, monos: Sequence[Monomial], rows: Iterable[Sequence[int]]
) -> tuple[Polynomial, ...]:
    """One polynomial per coefficient row over the monomial columns.

    Row entries must already lie in [0, q); the monomials are checked once
    for all rows.
    """
    _check_monomials(q, n, monos)
    return tuple(Polynomial(q, n, dict(compress(zip(monos, row), row))) for row in rows)


def poly_degree(P: Polynomial) -> int:
    """Total degree; -1 for the zero polynomial."""
    return max((sum(m) for m in P.terms), default=-1)


def value_table(polys: Sequence[Polynomial], points: Sequence[Sequence[int]], q: int) -> Rows:
    """Row per polynomial, column per point (coordinates): its value there.

    Each distinct monomial is evaluated once at every point, and each row
    combines those monomial rows by its coefficients mod q, in linalg's
    table format for linalg to eliminate.
    """
    columns: dict[Monomial, int] = {}
    weights = [
        [(columns.setdefault(m, len(columns)), c % q) for m, c in P.terms.items()] for P in polys
    ]
    return combine_rows(weights, monomial_table(list(columns), points, q), len(points), q)


def eval_poly(P: Polynomial, x: FieldVector) -> int:
    """P(x) mod q."""
    if P.q != x.q or P.n != x.n:
        raise DimensionMismatch(
            f"polynomial over (q={P.q}, n={P.n}) evaluated at point over (q={x.q}, n={x.n})"
        )
    return sum(c * eval_monomial(m, x.coords, P.q) for m, c in P.terms.items()) % P.q
