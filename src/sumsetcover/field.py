"""Points of F_q^n, duplicate-free point sets, and the sum index of S x T.

Everything here is immutable and every operation is a pure function, so values
can be shared freely between threads.  Vectors are ordered lexicographically
by coordinate tuple; that order is the canonical ordering used whenever a
deterministic choice has to be made downstream.

`sum_index` is where the witness pipeline enumerates S x T: it maps each
sum's coordinates to its first row-major position, so the sumset, the pivot
columns and the patch representatives all come from one pass.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import DimensionMismatch, EnumerationTooLarge

# Full-space enumeration is refused above this many points unless the caller
# raises the cap explicitly; the witness construction is inherently O(q^n).
DEFAULT_ENUM_CAP = 2**22


# Below the smallest strong pseudoprime to all 13 bases (Sorenson and Webster
# 2015), a strong probable prime to every base is prime.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_WITNESSES_EXACT_BELOW = 3317044064679887385961981


def is_prime(q: int) -> bool:
    """Deterministic Miller-Rabin on the first 13 prime bases, at most
    (log2 q)^2 multiplications per base.  EnumerationTooLarge for a q at or
    above the bound where those bases are exact and with no factor among them."""
    if q <= _WITNESSES[-1] or any(q % p == 0 for p in _WITNESSES):
        return q in _WITNESSES
    if q >= _WITNESSES_EXACT_BELOW:
        raise EnumerationTooLarge(f"q = {q} exceeds the primality bound {_WITNESSES_EXACT_BELOW}")
    s = ((q - 1) & (1 - q)).bit_length() - 1  # q - 1 = d * 2^s, d odd
    d = (q - 1) >> s
    for a in _WITNESSES:
        x = pow(a, d, q)
        if x != 1 and all(pow(x, 2**r, q) != q - 1 for r in range(s)):
            return False
    return True


@dataclass(frozen=True, order=True)
class FieldVector:
    """A point of F_q^n; coordinates are reduced mod q at construction."""

    q: int
    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coords", tuple(c % self.q for c in self.coords))

    @property
    def n(self) -> int:
        return len(self.coords)

    def _check_compatible(self, other: FieldVector) -> None:
        if self.q != other.q or self.n != other.n:
            raise DimensionMismatch(
                f"vectors live in different spaces: "
                f"(q={self.q}, n={self.n}) vs (q={other.q}, n={other.n})"
            )

    def __add__(self, other: FieldVector) -> FieldVector:
        if not isinstance(other, FieldVector):
            return NotImplemented
        self._check_compatible(other)
        return FieldVector(self.q, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: FieldVector) -> FieldVector:
        if not isinstance(other, FieldVector):
            return NotImplemented
        self._check_compatible(other)
        return FieldVector(self.q, tuple(a - b for a, b in zip(self.coords, other.coords)))


@dataclass(frozen=True)
class PointSet:
    """A duplicate-free finite subset of F_q^n.

    Iteration is always in canonical (lexicographic) order so that any
    construction driven by iteration is reproducible.
    """

    q: int
    n: int
    members: frozenset[FieldVector]

    def __post_init__(self) -> None:
        for v in self.members:
            if v.q != self.q or v.n != self.n:
                raise DimensionMismatch(
                    f"member (q={v.q}, n={v.n}) does not fit set over (q={self.q}, n={self.n})"
                )

    @classmethod
    def empty(cls, q: int, n: int) -> PointSet:
        return cls(q, n, frozenset())

    @classmethod
    def from_vectors(cls, q: int, n: int, vectors: Iterable[FieldVector]) -> PointSet:
        return cls(q, n, frozenset(vectors))

    @classmethod
    def from_coords(cls, q: int, n: int, coords: Iterable[Iterable[int]]) -> PointSet:
        return cls(q, n, frozenset(FieldVector(q, tuple(c)) for c in coords))

    def ordered(self) -> tuple[FieldVector, ...]:
        return tuple(sorted(self.members))

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[FieldVector]:
        return iter(self.ordered())

    def __contains__(self, v: FieldVector) -> bool:
        return v in self.members

    def union(self, other: PointSet) -> PointSet:
        self._check_compatible(other)
        return PointSet(self.q, self.n, self.members | other.members)

    def difference(self, other: PointSet) -> PointSet:
        self._check_compatible(other)
        return PointSet(self.q, self.n, self.members - other.members)

    def issubset(self, other: PointSet) -> bool:
        self._check_compatible(other)
        return self.members <= other.members

    def _check_compatible(self, other: PointSet) -> None:
        if self.q != other.q or self.n != other.n:
            raise DimensionMismatch(
                f"sets live in different spaces: "
                f"(q={self.q}, n={self.n}) vs (q={other.q}, n={other.n})"
            )


def sum_index(S: PointSet, T: PointSet) -> dict[tuple[int, ...], tuple[int, int]]:
    """Each sum's coordinates mapped to its first row-major position (i, j).

    One pass over S.ordered() x T.ordered() on coordinate tuples, rows
    outer.  The keys, in insertion order, are S+T in order of first
    occurrence.  The row i of a sum w is the index of the smallest s in S
    with w - s in T.  Empty iff S or T is empty.
    """
    S._check_compatible(T)
    q = S.q
    t_coords = sorted(t.coords for t in T.members)
    first: dict[tuple[int, ...], tuple[int, int]] = {}
    for i, s in enumerate(sorted(v.coords for v in S.members)):
        for j, t in enumerate(t_coords):
            first.setdefault(tuple([(a + b) % q for a, b in zip(s, t)]), (i, j))
    return first


def sumset(S: PointSet, T: PointSet) -> PointSet:
    """All pairwise sums {s + t}; empty iff S or T is empty."""
    return PointSet.from_coords(S.q, S.n, sum_index(S, T))


def check_enumeration_cap(q: int, n: int, cap: int) -> None:
    """EnumerationTooLarge when q^n exceeds the enumeration cap."""
    size = q**n
    if size > cap:
        raise EnumerationTooLarge(f"q^n = {size} exceeds enumeration cap {cap}")


def all_points(q: int, n: int, *, cap: int = DEFAULT_ENUM_CAP) -> PointSet:
    """The full space F_q^n; refuses when q^n exceeds the enumeration cap."""
    check_enumeration_cap(q, n, cap)
    vecs = (FieldVector(q, c) for c in itertools.product(range(q), repeat=n))
    return PointSet(q, n, frozenset(vecs))


def complement(A: PointSet, *, cap: int = DEFAULT_ENUM_CAP) -> PointSet:
    """F_q^n minus A; needs a full-space enumeration, hence the cap."""
    return all_points(A.q, A.n, cap=cap).difference(A)
