"""Seeded instance generator for the benchmark workloads.

Instances are drawn with the standard library only (``random`` and
``itertools`` on plain coordinate tuples), never with ``sumsetcover``, so a
change to the library cannot change what it is measured on.  The same seed
gives byte-identical instances.

A workload is an endless sequence of *cycles*.  One cycle holds one instance
per slot of the workload's mix (say, one q=3 n=4 and one q=3 n=5 file), and a
run only stops between cycles, so every run measures the same mix of sizes.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from typing import Callable, Iterator

Point = tuple[int, ...]

# Seed whose witnesses are recorded in digests.json and checked on every run.
DEFAULT_SEED = 1

# Cost guard.  Pure-Python elimination time grows with these two matrix sizes
# (in cells), computed from exact counts before anything runs:
#   vanishing cells  = (q^n - |S+T|) * m_d, the constraint matrix whose null
#                      space is the vanishing space;
#   sum-matrix cells = (m_d - q^n + |S+T|) * |S| * |T|, a lower bound on the
#                      grid that pivot elimination works through.
# The caps admit every default workload and refuse, for example, a random
# q=3 n=6 pair at inclusion probability 0.03, which takes about 27 s per op.
VANISHING_CELLS_CAP = 60_000
SUMMATRIX_CELLS_CAP = 40_000


class OutOfBudget(ValueError):
    """An instance whose estimated elimination size exceeds the guard's caps."""


@dataclass(frozen=True)
class Instance:
    q: int
    n: int
    S: tuple[Point, ...]
    T: tuple[Point, ...]

    def to_json(self) -> str:
        return json.dumps(
            {"q": self.q, "n": self.n, "S": [list(p) for p in self.S], "T": [list(p) for p in self.T]},
            separators=(",", ":"),
        )


def points(q: int, n: int) -> list[Point]:
    """F_q^n in lexicographic order."""
    return list(itertools.product(range(q), repeat=n))


def add(q: int, a: Point, b: Point) -> Point:
    return tuple((x + y) % q for x, y in zip(a, b))


def sumset(q: int, S, T) -> set[Point]:
    return {add(q, s, t) for s in S for t in T}


def _sample(rng: random.Random, pool: list[Point], k: int) -> tuple[Point, ...]:
    return tuple(sorted(rng.sample(pool, k)))


def _random_subspace(rng: random.Random, q: int, n: int, k: int) -> list[Point]:
    """The span of k random vectors, redrawn until it has dimension k."""
    zero = (0,) * n
    while True:
        basis = [tuple(rng.randrange(q) for _ in range(n)) for _ in range(k)]
        span = set()
        for coeffs in itertools.product(range(q), repeat=k):
            v = zero
            for c, b in zip(coeffs, basis):
                v = add(q, v, tuple(c * x for x in b))
            span.add(v)
        if len(span) == q**k:
            return sorted(span)


# --- workload mixes --------------------------------------------------------

FRONTIER_SIZE = 14  # |S| = |T| = 14 of 243 points: inclusion probability ~0.058
SUBSPACE_SPECS = ((3, 5, 2), (3, 5, 3), (2, 8, 4), (2, 8, 5))  # (q, n, k)
TINY_SPACES = (
    (2, 1), (2, 2), (2, 3), (2, 4),
    (3, 1), (3, 2), (3, 3), (3, 4),
    (5, 1), (5, 2), (5, 3),
    (7, 1), (7, 2),
)
TINY_MAX_SIZE = 8
# (q, n, |S| = |T|, |S+T|).  Three n=4 slots per n=5 slot put the median op
# among the many cheap n=4 ops, where a run has enough samples for a steady
# median, while the n=5 op keeps most of the run's time.  |S+T| is fixed at
# its most common value for random pairs of that size (47 of 81, 58 of 243),
# because the audit's cost grows with the vanishing dimension it sets.
CERTIFY_SPECS = ((3, 4, 8, 47), (3, 4, 8, 47), (3, 4, 8, 47), (3, 5, 8, 58))


def _frontier_cycle(rng: random.Random) -> list[Instance]:
    pool = points(3, 5)
    return [Instance(3, 5, _sample(rng, pool, FRONTIER_SIZE), _sample(rng, pool, FRONTIER_SIZE))]


def _subspace_cycle(rng: random.Random) -> list[Instance]:
    out = []
    for q, n, k in SUBSPACE_SPECS:
        V = _random_subspace(rng, q, n, k)
        shift = tuple(rng.randrange(q) for _ in range(n))
        half = (len(V) + 1) // 2
        S = _sample(rng, V, half)
        T = tuple(sorted(add(q, v, shift) for v in rng.sample(V, half)))
        out.append(Instance(q, n, S, T))
    return out


def _tiny_cycle(rng: random.Random) -> list[Instance]:
    out = []
    for q, n in TINY_SPACES:
        pool = points(q, n)
        top = min(TINY_MAX_SIZE, len(pool))
        out.append(Instance(q, n, _sample(rng, pool, rng.randint(1, top)), _sample(rng, pool, rng.randint(1, top))))
    return out


def _certify_cycle(rng: random.Random) -> list[Instance]:
    out = []
    for q, n, k, sums in CERTIFY_SPECS:
        pool = points(q, n)
        while True:  # about one draw in six has the wanted |S+T|
            S, T = _sample(rng, pool, k), _sample(rng, pool, k)
            if len(sumset(q, S, T)) == sums:
                break
        out.append(Instance(q, n, S, T))
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    op: str  # "decompose", "tiny" or "cli"; see ops.py
    draw_cycle: Callable[[random.Random], list[Instance]]
    spaces: tuple[tuple[int, int], ...]  # every (q, n) it runs, for the warm-up
    counter_cycles: int  # cycles over which the computed counts are taken


WORKLOADS = {
    w.name: w
    for w in (
        Workload("frontier_q3", "decompose", _frontier_cycle, ((3, 5),), 3),
        Workload("subspace_sums", "decompose", _subspace_cycle, ((3, 5), (2, 8)), 2),
        Workload("tiny_trials", "tiny", _tiny_cycle, TINY_SPACES, 4),
        Workload("certify_cli", "cli", _certify_cycle, ((3, 4), (3, 5)), 1),
    )
}


def cycles(workload: Workload, seed: int) -> Iterator[list[Instance]]:
    """The workload's instance stream for one seed, each instance cost-checked."""
    rng = random.Random(f"{workload.name}:{seed}")
    while True:
        batch = workload.draw_cycle(rng)
        for inst in batch:
            check_budget(inst)
        yield batch


def warm_up_instance(q: int, n: int) -> Instance:
    """S = T = {0, e_1, ..., e_n}: a fixed, cheap instance at one (q, n)."""
    pts = [(0,) * n] + [tuple(int(i == j) for j in range(n)) for i in range(n)]
    pts = tuple(sorted(pts))
    return Instance(q, n, pts, pts)


# --- cost guard -------------------------------------------------------------


def elimination_size(inst: Instance) -> tuple[int, int]:
    """(vanishing cells, sum-matrix cells lower bound) from exact counts."""
    from sumsetcover import choose_degree, count_m

    q, n = inst.q, inst.n
    m_d = count_m(q, n, choose_degree(q, n)[0])
    st = len(sumset(q, inst.S, inst.T))
    vanishing = (q**n - st) * m_d
    summatrix = max(0, m_d - q**n + st) * len(inst.S) * len(inst.T)
    return vanishing, summatrix


def check_budget(inst: Instance) -> None:
    vanishing, summatrix = elimination_size(inst)
    if vanishing > VANISHING_CELLS_CAP or summatrix > SUMMATRIX_CELLS_CAP:
        raise OutOfBudget(
            f"refused q={inst.q} n={inst.n} |S|={len(inst.S)} |T|={len(inst.T)}: "
            f"estimated {vanishing} vanishing cells (cap {VANISHING_CELLS_CAP}) and "
            f"{summatrix} sum-matrix cells (cap {SUMMATRIX_CELLS_CAP}); "
            "an op this size would run for tens of seconds or more"
        )


# --- checks on plain tuples -------------------------------------------------


def covers(inst: Instance, s_witness, t_witness) -> bool:
    """Witnesses lie in the inputs and their line sums are all of S+T."""
    if not set(s_witness) <= set(inst.S) or not set(t_witness) <= set(inst.T):
        return False
    q = inst.q
    lines = sumset(q, s_witness, inst.T) | sumset(q, inst.S, t_witness)
    return lines == sumset(q, inst.S, inst.T)


def witness_digest(s_witness, t_witness) -> str:
    """Short digest of one witness pair, independent of point order."""
    blob = json.dumps([sorted(map(list, s_witness)), sorted(map(list, t_witness))], separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def combined_digest(digests: list[str]) -> str:
    return hashlib.sha256(",".join(digests).encode()).hexdigest()[:16]
