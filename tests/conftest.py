"""Shared strategies and helpers for the test suite."""

from __future__ import annotations

import itertools
import os
import random
from functools import lru_cache

import hypothesis.strategies as st
import pytest

import sumsetcover as sc
from sumsetcover import summatrix

from reference import polys_from_rows


@pytest.fixture(autouse=True)
def fresh_expansions():
    """An empty rank-audit expansion memo before and after every test, so no
    test reads expansions another test made, a faulty one among them."""
    summatrix._EXPANSIONS.clear()
    yield
    summatrix._EXPANSIONS.clear()


def subprocess_env() -> dict[str, str]:
    """The environment with the imported package's source root first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(sc.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


@lru_cache(maxsize=None)
def space_points(q: int, n: int) -> tuple[sc.FieldVector, ...]:
    return sc.all_points(q, n).ordered()


def subset_from_mask(q: int, n: int, mask: int) -> sc.PointSet:
    pts = space_points(q, n)
    return sc.PointSet.from_vectors(q, n, (p for i, p in enumerate(pts) if mask >> i & 1))


@st.composite
def small_spaces(draw, primes=(2, 3), max_n=2):
    q = draw(st.sampled_from(primes))
    n = draw(st.integers(1, max_n))
    return q, n


@st.composite
def point_sets(draw, primes=(2, 3), max_n=2, allow_empty=True):
    q, n = draw(small_spaces(primes=primes, max_n=max_n))
    size = q**n
    mask = draw(st.integers(0 if allow_empty else 1, 2**size - 1))
    return subset_from_mask(q, n, mask)


@st.composite
def set_pairs(draw, primes=(2, 3), max_n=2, allow_empty=True):
    q, n = draw(small_spaces(primes=primes, max_n=max_n))
    size = q**n
    lo = 0 if allow_empty else 1
    s_mask = draw(st.integers(lo, 2**size - 1))
    t_mask = draw(st.integers(lo, 2**size - 1))
    return subset_from_mask(q, n, s_mask), subset_from_mask(q, n, t_mask)


def basis(space: sc.PolySubspace) -> tuple[sc.Polynomial, ...]:
    """A vanishing space's basis rows as Polynomial values."""
    return polys_from_rows(space.q, space.n, space.monos, space.rows)


def rows_over(polys, monos) -> list[list[int]]:
    """Each polynomial's coefficients over the monomial list, as given."""
    return [[P.terms.get(m, 0) for m in monos] for P in polys]


def audit_polys(polys, degree, row_points, col_points):
    """The rank audit's engine, `summatrix._audit`, on each polynomial's sum
    matrix in turn: the polynomials read as coefficient rows over the graded
    monomials of degree <= d, the points as coordinates."""
    if not polys:
        return iter(())
    q, n = polys[0].q, polys[0].n
    monos = sc.enumerate_monomials(q, n, degree)
    rows, cols = ([x.coords for x in points] for points in (row_points, col_points))
    return summatrix._audit(q, n, degree, monos, rows_over(polys, monos), rows, cols)


@st.composite
def polynomials(draw, q=3, n=2, max_degree=None):
    monos = sc.enumerate_monomials(q, n, max_degree if max_degree is not None else (q - 1) * n)
    coeffs = draw(st.lists(st.integers(0, q - 1), min_size=len(monos), max_size=len(monos)))
    return sc.poly_from_terms(q, n, dict(zip(monos, coeffs)))


def brute_sumset(S: sc.PointSet, T: sc.PointSet) -> set[tuple[int, ...]]:
    """Independent sumset enumeration on raw coordinate tuples."""
    q = S.q
    return {
        tuple((a + b) % q for a, b in zip(s.coords, t.coords))
        for s in S.members
        for t in T.members
    }


def brute_first_occurrence(
    S: sc.PointSet, T: sc.PointSet
) -> dict[tuple[int, ...], tuple[int, int]]:
    """Smallest row-major (i, j) with s_i + t_j = w, per sum w, on raw tuples.

    Items come in order of their positions, i.e. order of first occurrence.
    """
    q = S.q
    s_list = [s.coords for s in S.ordered()]
    t_list = [t.coords for t in T.ordered()]
    first = {
        w: min(
            (i, j)
            for i, s in enumerate(s_list)
            for j, t in enumerate(t_list)
            if all((a + b - c) % q == 0 for a, b, c in zip(s, t, w))
        )
        for w in brute_sumset(S, T)
    }
    return dict(sorted(first.items(), key=lambda item: item[1]))


# (q, n) grid for the seeded differential tests of the sum index and pivots
SEEDED_GRID = [(2, n) for n in range(1, 7)] + [(3, n) for n in range(1, 5)] + [(5, 2), (7, 2)]


def seeded_pair(q: int, n: int, seed: int) -> tuple[sc.PointSet, sc.PointSet]:
    """A reproducible nonempty pair of at most 12 points each."""
    rng = random.Random(seed)
    pts = list(itertools.product(range(q), repeat=n))
    size = max(1, min(len(pts) // 3, 12))
    S = sc.PointSet.from_coords(q, n, rng.sample(pts, rng.randint(1, size)))
    T = sc.PointSet.from_coords(q, n, rng.sample(pts, rng.randint(1, size)))
    return S, T


def brute_monomials(q: int, n: int, d: int) -> set[tuple[int, ...]]:
    """Independent reduced-monomial enumeration by full product filtering."""
    return {e for e in itertools.product(range(q), repeat=n) if sum(e) <= d}


@st.composite
def affine_maps(draw, q: int, n: int):
    """(M, b) for g(x) = Mx + b over F_q with M invertible, drawn as P L U:
    a row permutation, a unit lower and a nonsingular upper triangular factor."""
    coef = st.integers(0, q - 1)
    lower = [[1 if i == j else draw(coef) if j < i else 0 for j in range(n)] for i in range(n)]
    upper = [
        [draw(st.integers(1, q - 1)) if i == j else draw(coef) if j > i else 0 for j in range(n)]
        for i in range(n)
    ]
    lu = [[sum(a * b for a, b in zip(row, col)) % q for col in zip(*upper)] for row in lower]
    M = [lu[i] for i in draw(st.permutations(range(n)))]
    return M, tuple(draw(coef) for _ in range(n))


def apply_affine(M, b, A: sc.PointSet) -> sc.PointSet:
    """The image of A under x -> Mx + b."""
    q = A.q
    return sc.PointSet.from_coords(q, A.n, (
        [(sum(m * x for m, x in zip(row, p.coords)) + c) % q for row, c in zip(M, b)]
        for p in A.members
    ))


def coordinate_subspace(q: int, n: int, k: int) -> sc.PointSet:
    """The points of F_q^n whose last n - k coordinates are 0."""
    return sc.PointSet.from_coords(q, n, (c + (0,) * (n - k) for c in itertools.product(range(q), repeat=k)))


def subspace_dim(q: int, n: int, k: int, d: int) -> int:
    """Dimension of the degree-<= d polynomials vanishing off a k-dimensional
    affine subspace: m(q, k, d - (n-k)(q-1)), 0 when that degree is negative."""
    e = d - (n - k) * (q - 1)
    return sc.count_m(q, k, e) if e >= 0 else 0
