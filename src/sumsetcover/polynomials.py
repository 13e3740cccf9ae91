"""Reduced multivariate polynomials over F_q, as term maps.

A polynomial is a map {exponent tuple: nonzero coefficient} with every
exponent at most q-1 per variable.  Reduced polynomials represent functions
F_q^n -> F_q uniquely, which is what makes the vanishing-space constructions
downstream exact.  Instances are treated as immutable.  `poly_from_terms`
builds one from any term map, checking the exponents and reducing the
coefficients; `polys_from_rows` reads coefficient rows over a monomial
list, the library's own format (vanishing.PolySubspace), already reduced
mod q.  Only the rank-split API and callers that want term maps use this
module: nothing that decompose.run_pipeline imports reaches it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Mapping, Sequence

from .errors import DimensionMismatch
from .field import FieldVector
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


def eval_poly(P: Polynomial, x: FieldVector) -> int:
    """P(x) mod q."""
    if P.q != x.q or P.n != x.n:
        raise DimensionMismatch(
            f"polynomial over (q={P.q}, n={P.n}) evaluated at point over (q={x.q}, n={x.n})"
        )
    return sum(c * eval_monomial(m, x.coords, P.q) for m, c in P.terms.items()) % P.q
