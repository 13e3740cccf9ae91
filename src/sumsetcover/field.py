"""Points of F_q^n, duplicate-free point sets, the sum index of S x T, and
seeded random pairs (S, T) with their input checks.

Everything here is immutable and every operation is a pure function, so values
can be shared freely between threads.  Vectors are ordered lexicographically
by coordinate tuple; that order is the canonical ordering used whenever a
deterministic choice has to be made downstream.

`sum_index` is where the witness pipeline enumerates S x T: it maps each
sum's coordinates to its first row-major position, so the sumset, the pivot
columns and the patch representatives all come from one pass.  The pass
runs on packed points (`Lanes`): each coordinate is a lane `width` bits wide
with 2^(width-1) >= q, the first coordinate in the most significant lane, so
integer order is tuple order, and s + t is one integer add x = s + t
followed by x - q*(((x + bias) & high) >> (width-1)), where bias holds
2^(width-1) - q and high holds 2^(width-1) in every lane (Lamport, "Multiple
byte processing with full-word instructions", CACM 18(8), 1975).
`coded_sum_index` is that pass, keyed by codes; `sum_index` is the same pass
with each key decoded once.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import DimensionMismatch, EnumerationTooLarge, ValidationError

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


def check_space(q: int, n: int) -> None:
    """ValidationError unless q is prime and n >= 1."""
    if not is_prime(q):
        raise ValidationError(f"q = {q} is not prime")
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")


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


_COORDS = attrgetter("coords")


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
        # every member has this q, so coordinate order is FieldVector order
        return tuple(sorted(self.members, key=_COORDS))

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


class Lanes(NamedTuple):
    """The packed coding of F_q^n: a point is one int, coordinate k in the
    lane of bits [width*(n-1-k), width*(n-k)), so the first coordinate is
    most significant and integer order is tuple order.  2^(width-1) >= q
    leaves each lane room for a sum of two coordinates and for the bias."""

    q: int
    n: int
    width: int
    bias: int  # 2^(width-1) - q in every lane
    high: int  # 2^(width-1) in every lane

    @classmethod
    def of(cls, q: int, n: int) -> Lanes:
        width = (q - 1).bit_length() + 1
        ones = sum(1 << (width * k) for k in range(n))
        return cls(q, n, width, ones * ((1 << (width - 1)) - q), ones << (width - 1))

    def encode(self, coords: Iterable[int]) -> int:
        """The code of a reduced coordinate tuple."""
        code = 0
        for c in coords:
            code = (code << self.width) | c
        return code

    def decode(self, code: int) -> tuple[int, ...]:
        """The coordinate tuple of a code."""
        w, mask = self.width, (1 << self.width) - 1
        return tuple([(code >> (w * k)) & mask for k in range(self.n - 1, -1, -1)])

    def add(self, a: int, b: int) -> int:
        """a + b in F_q^n: one add, then q off every lane that reached q."""
        x = a + b
        return x - self.q * (((x + self.bias) & self.high) >> (self.width - 1))

    def sums(self, xs: Iterable[int], ys: Sequence[int]) -> set[int]:
        """The codes of every x + y."""
        q, bias, high, shift = self.q, self.bias, self.high, self.width - 1
        return {(z := x + y) - q * (((z + bias) & high) >> shift) for x in xs for y in ys}

    def points(self, *, cap: int = DEFAULT_ENUM_CAP) -> dict[int, tuple[int, ...]]:
        """Every point of F_q^n, its code mapped to its coordinate tuple, in
        lexicographic order; refuses q^n above the enumeration cap."""
        check_enumeration_cap(self.q, self.n, cap)
        codes = [0]
        for _ in range(self.n):
            codes = [(c << self.width) | d for c in codes for d in range(self.q)]
        return dict(zip(codes, itertools.product(range(self.q), repeat=self.n)))


def coded_sum_index(
    lanes: Lanes, s_codes: Sequence[int], t_codes: Sequence[int]
) -> dict[int, tuple[int, int]]:
    """Each sum's code mapped to its first row-major position (i, j).

    One pass over s_codes x t_codes, rows outer, each sum one packed add;
    the codes are S and T in canonical order.  The keys, in insertion
    order, are S+T in order of first occurrence.  The pass stops after the
    row that completes F_q^n: later pairs cannot change a first occurrence.
    """
    q, bias, high, shift = lanes.q, lanes.bias, lanes.high, lanes.width - 1
    full = q**lanes.n
    first: dict[int, tuple[int, int]] = {}
    setdefault = first.setdefault
    for i, s in enumerate(s_codes):
        for j, t in enumerate(t_codes):
            x = s + t
            setdefault(x - q * (((x + bias) & high) >> shift), (i, j))
        if len(first) == full:
            break
    return first


def sum_index(S: PointSet, T: PointSet) -> dict[tuple[int, ...], tuple[int, int]]:
    """Each sum's coordinates mapped to its first row-major position (i, j).

    The coded pass over S.ordered() x T.ordered() (coded_sum_index), each
    key decoded once.  The keys, in insertion order, are S+T in order of
    first occurrence.  The row i of a sum w is the index of the smallest s
    in S with w - s in T.  Empty iff S or T is empty.  The pass stops after
    the row that completes F_q^n.
    """
    S._check_compatible(T)
    lanes = Lanes.of(S.q, S.n)
    s_codes, t_codes = (sorted(lanes.encode(v.coords) for v in A.members) for A in (S, T))
    decode = lanes.decode
    return {decode(code): ij for code, ij in coded_sum_index(lanes, s_codes, t_codes).items()}


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


def random_pairs(
    q: int, n: int, count: int, seed: int, p: float, *, cap: int = DEFAULT_ENUM_CAP
) -> Iterator[tuple[PointSet, PointSet]]:
    """`count` seeded random pairs (S, T) in F_q^n.  One random.Random(seed)
    puts each point, in canonical order, into S with probability p, then
    likewise into T.  Bad input and q^n above cap are refused on the call,
    before any draw."""
    check_space(q, n)
    if count < 0:
        raise ValidationError(f"count must be >= 0, got {count}")
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"inclusion probability must be in [0, 1], got {p}")
    points = all_points(q, n, cap=cap).ordered()
    rng = random.Random(seed)

    def draw() -> PointSet:
        return PointSet.from_vectors(q, n, [v for v in points if rng.random() < p])
    return ((draw(), draw()) for _ in range(count))
