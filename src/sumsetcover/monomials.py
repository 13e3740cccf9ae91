"""Reduced monomials: evaluation, enumeration, exact counts, the cap-set budget.

A monomial is an exponent tuple with every entry in [0, q-1] ("reduced":
such monomials represent functions F_q^n -> F_q without redundancy).  We
write m(q, n, d) for the number of reduced monomials in n variables of total
degree at most d.

Counting never enumerates: the per-degree counts are the coefficients of
(1 + x + ... + x^(q-1))^n, computed by repeated exact big-integer
convolution, so counts remain available for n in the hundreds where the
monomial list itself would have astronomically many entries.

`growth_estimate` owns its work budget and refuses, before any work, n_max
or digits below 1 with ValueError, and with EnumerationTooLarge the counts
up to n_max when `check_count_cap` puts them above DEFAULT_ENUM_CAP and the
decimal roots when (n_max - 1) * digits^3 exceeds GROWTH_ROOT_CAP.  Every
caller (the `bound` command, the growth-table script, library code) gets
the same refusals.
"""

from __future__ import annotations

import decimal
import itertools
from dataclasses import dataclass, field
from decimal import Decimal
from typing import Iterator, Sequence

from .errors import DimensionMismatch, EnumerationTooLarge
from .field import DEFAULT_ENUM_CAP

Monomial = tuple[int, ...]

# growth_estimate takes n_max - 1 decimal roots, each under 6e-11 s per digit^3
GROWTH_ROOT_CAP = 10**11  # digit^3 steps, at most about 6 s


def monomial_key(m: Monomial) -> tuple[int, tuple[int, ...]]:
    """Canonical graded order: total degree first, earlier variables first.

    Within one degree, x1^2 precedes x1*x2 precedes x2^2; achieved by
    comparing negated exponent tuples.
    """
    return (sum(m), tuple(-e for e in m))


def eval_monomial(mono: Monomial, coords: Sequence[int], q: int) -> int:
    """The monomial at the point, mod q; DimensionMismatch for another length."""
    if len(coords) != len(mono):
        raise DimensionMismatch(f"point {tuple(coords)} for a monomial in {len(mono)} variables")
    v = 1
    for xi, e in zip(coords, mono):
        if e:
            v = (v * pow(xi, e, q)) % q
    return v


@dataclass(frozen=True)
class CountTable:
    """Exact counts of reduced monomials by total degree, 0 .. (q-1)*n.

    cumulative[d] is the number of monomials of total degree <= d, summed
    once at construction.
    """

    q: int
    n: int
    counts: tuple[int, ...]
    cumulative: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "cumulative", tuple(itertools.accumulate(self.counts)))

    def prefix(self, d: int) -> int:
        """Number of monomials of total degree <= d (clamped to the range)."""
        if d < 0:
            return 0
        return self.cumulative[min(d, len(self.cumulative) - 1)]

    def budget(self, d: int) -> int:
        """Witness-size budget 2*m(q,n,floor(d/2)) + q^n - m(q,n,d), clamped as prefix is."""
        return 2 * self.prefix(d // 2) + self.q**self.n - self.prefix(d)

    def minimized(self) -> tuple[int, int]:
        """The degree in [0, (q-1)*n] minimizing the budget, ties to the
        smallest, and that budget."""
        bound, d = min((self.budget(d), d) for d in range(len(self.counts)))
        return d, bound

    def capset_budget(self) -> int:
        """3 * m(q, n, floor((q-1)*n/3))."""
        return 3 * self.prefix((self.q - 1) * self.n // 3)

    def extended(self) -> CountTable:
        """The table at n + 1, one convolution on from this one."""
        return CountTable(self.q, self.n + 1, tuple(_convolve_window(list(self.counts), self.q)))


def _convolve_window(counts: list[int], q: int) -> list[int]:
    """Multiply a coefficient list by 1 + x + ... + x^(q-1), exactly."""
    out = [0] * (len(counts) + q - 1)
    for i, c in enumerate(counts):
        if c:
            for j in range(q):
                out[i + j] += c
    return out


def degree_counts(q: int, n: int) -> CountTable:
    """Coefficients of (1 + x + ... + x^(q-1))^n as exact integers."""
    counts = [1]
    for _ in range(n):
        counts = _convolve_window(counts, q)
    return CountTable(q, n, tuple(counts))


def check_count_cap(q: int, n: int, cap: int) -> None:
    """EnumerationTooLarge when degree_counts(q, n) takes more than cap steps:
    n window sums of width q over at most (q-1)n + 1 counts."""
    if (steps := q * (n + (q - 1) * n * (n - 1) // 2)) > cap:
        raise EnumerationTooLarge(f"counting monomials by degree takes {steps} steps > cap {cap}")


def count_m(q: int, n: int, d: int) -> int:
    """Exact number of reduced monomials of total degree <= d.

    Degrees above (q-1)*n clamp to q^n (every reduced monomial counted).
    """
    if d < 0:
        raise ValueError(f"degree must be >= 0, got {d}")
    return degree_counts(q, n).prefix(d)


def _tuples_of_degree(n: int, e: int, cap_exp: int) -> Iterator[Monomial]:
    """Exponent tuples of length n summing to e, entries <= cap_exp.

    First coordinate descends, so a fixed degree comes out in canonical
    order (matching monomial_key).
    """
    if n == 0:
        if e == 0:
            yield ()
        return
    lo = max(0, e - cap_exp * (n - 1))
    for first in range(min(e, cap_exp), lo - 1, -1):
        for rest in _tuples_of_degree(n - 1, e - first, cap_exp):
            yield (first,) + rest


def enumerate_monomials(
    q: int, n: int, d: int, *, cap: int = DEFAULT_ENUM_CAP
) -> list[Monomial]:
    """All reduced monomials of total degree <= d, in canonical graded order.

    The result has exactly count_m(q, n, d) entries; the count is checked
    against the cap before any enumeration happens.
    """
    total = count_m(q, n, d)
    if total > cap:
        raise EnumerationTooLarge(f"{total} monomials exceed enumeration cap {cap}")
    out: list[Monomial] = []
    for e in range(0, min(d, (q - 1) * n) + 1):
        out.extend(_tuples_of_degree(n, e, q - 1))
    return out


def capset_bound_M(q: int, n: int) -> int:
    """The 3 * m(q, n, floor((q-1)*n/3)) budget for witness-set sizes.

    Fractional degree indices are floored: total degrees are integers, so
    "degree at most (q-1)*n/3" admits exactly the monomials of degree
    <= floor((q-1)*n/3).
    """
    return degree_counts(q, n).capset_budget()


def growth_estimate(q: int, n_max: int, *, digits: int = 30) -> list[Decimal]:
    """The sequence (3 * m(q, n, floor((q-1)n/3)))^(1/n) for n = 1 .. n_max.

    Computed from exact big-integer counts; the root is taken in decimal
    arithmetic at the requested precision.

    Let Gamma_q = min over 0 < x < 1 of (1 + x + ... + x^(q-1)) / x^((q-1)/3),
    a constant strictly below q (Gamma_3 ~ 2.7551).  Every term is at most
    3^(1/n) * Gamma_q, by the Chernoff bound
    m(q, n, a) <= x^(-a) (1 + x + ... + x^(q-1))^n for 0 < x <= 1 and
    a <= (q-1)n/3, and the terms approach Gamma_q as n grows.  They are not
    monotone: the floor in the degree index makes them wiggle with period 3
    (for q = 3, n = 20 -> 21 rises 2.68771 -> 2.71416).

    ValueError for n_max or digits below 1, and EnumerationTooLarge when the
    counts up to n_max exceed DEFAULT_ENUM_CAP steps or the roots
    GROWTH_ROOT_CAP, each before any convolution or root.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if digits < 1:
        raise ValueError(f"digits must be >= 1, got {digits}")
    check_count_cap(q, n_max, DEFAULT_ENUM_CAP)
    if (work := (n_max - 1) * digits**3) > GROWTH_ROOT_CAP:
        raise EnumerationTooLarge(f"growth roots take {work} digit^3 steps > cap {GROWTH_ROOT_CAP}")
    out: list[Decimal] = []
    # one count table, extended by one convolution per n
    table = degree_counts(q, 0)
    for n in range(1, n_max + 1):
        table = table.extended()
        big = table.capset_budget()
        if n == 1:
            out.append(Decimal(big))
            continue
        with decimal.localcontext() as ctx:
            ctx.prec = digits
            root = (Decimal(big).ln() / n).exp()
            nearest = int(root.to_integral_value())
        if nearest**n == big:
            out.append(Decimal(nearest))
        else:
            out.append(root)
    return out
