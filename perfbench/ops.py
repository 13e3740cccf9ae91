"""The benchmark's ops: one user-visible request each, through the public API.

Each op kind has three parts:

* ``prepare(inst)`` — untimed; turns an instance into the op's argument
  (for the CLI op, an instance file on disk);
* ``run(arg)`` — the timed op.  It starts from plain coordinate tuples, so
  building ``PointSet`` values at the API edge is part of the op;
* ``check(inst, raw)`` — untimed; re-checks the witness with the benchmark's
  own tuple code and returns an ``Outcome`` with the computed counts.

Library functions are looked up as module attributes at call time, so the
tracer's wrappers (see tracing.py) see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass, field

import sumsetcover as sc
import sumsetcover.cli as sc_cli

from workloads import Instance, covers, sumset, warm_up_instance, witness_digest

# tiny_trials runs the exhaustive oracle only up to this |S| + |T|.
ORACLE_MAX_TOTAL = 12


@dataclass
class Outcome:
    ok: bool
    reason: str
    digest: str
    # computed counts for the per-layer report; see counts()
    counts: dict = field(default_factory=dict)
    greedy_total: int | None = None


def _coords(point_set) -> list:
    return sorted(v.coords for v in point_set.members)


def counts(inst: Instance, degree: int, bound: int, dim: int, cover_size: int,
           patch_reps: int, witness_total: int) -> dict:
    """Work and slack counts computed from sizes of returned objects."""
    q, n = inst.q, inst.n
    m_d = sc.count_m(q, n, degree)
    st = len(sumset(q, inst.S, inst.T))
    return {
        "m_d": m_d,
        "constraint_cells": (q**n - st) * m_d,
        "dim": dim,
        # one pivot per basis matrix, so pivots = dim
        "pivots": dim,
        "sum_matrix_cells": dim * len(inst.S) * len(inst.T),
        "useful_evals": dim * st,
        "cover_size": cover_size,
        "rank_bound": 2 * sc.count_m(q, n, degree // 2),
        "patch_reps": patch_reps,
        "slack_to_bound": bound - witness_total,
        "witness_total": witness_total,
    }


# --- decompose: frontier_q3, subspace_sums ----------------------------------


def decompose_run(inst: Instance):
    S = sc.PointSet.from_coords(inst.q, inst.n, inst.S)
    T = sc.PointSet.from_coords(inst.q, inst.n, inst.T)
    dec = sc.decompose(S, T)
    return dec, sc.verify_decomposition(S, T, dec.s_witness, dec.t_witness)


def decompose_check(inst: Instance, raw) -> Outcome:
    dec, verified = raw
    sw, tw = _coords(dec.s_witness), _coords(dec.t_witness)
    cert = dec.certificate
    total = dec.witness_total
    c = counts(inst, dec.degree, dec.bound, cert.dim_vanishing, cert.cover_size, len(cert.patch_reps), total)
    reason = ""
    if not verified:
        reason = "verify_decomposition returned False"
    elif total > dec.bound:
        reason = f"witness total {total} exceeds bound {dec.bound}"
    elif not covers(inst, sw, tw):
        reason = "witness does not cover S+T (tuple re-check)"
    return Outcome(not reason, reason, witness_digest(sw, tw), c)


def greedy_total(inst: Instance) -> int:
    """Size of the library's greedy cover, for the excess-over-greedy count."""
    S = sc.PointSet.from_coords(inst.q, inst.n, inst.S)
    T = sc.PointSet.from_coords(inst.q, inst.n, inst.T)
    gs, gt = sc.greedy_decomposition(S, T)
    return len(gs) + len(gt)


# --- tiny_trials: decompose, verify, greedy, oracle -------------------------


def tiny_run(inst: Instance):
    S = sc.PointSet.from_coords(inst.q, inst.n, inst.S)
    T = sc.PointSet.from_coords(inst.q, inst.n, inst.T)
    dec = sc.decompose(S, T)
    verified = sc.verify_decomposition(S, T, dec.s_witness, dec.t_witness)
    greedy = sc.greedy_decomposition(S, T)
    oracle = None
    if len(S) + len(T) <= ORACLE_MAX_TOTAL:
        oracle = sc.oracle_min_decomposition(S, T)
    return dec, verified, greedy, oracle


def tiny_check(inst: Instance, raw) -> Outcome:
    dec, verified, (gs, gt), oracle = raw
    out = decompose_check(inst, (dec, verified))
    out.greedy_total = len(gs) + len(gt)
    if out.ok and not covers(inst, _coords(gs), _coords(gt)):
        out.ok, out.reason = False, "greedy cover does not cover S+T"
    if out.ok and oracle is not None:
        if not covers(inst, _coords(oracle.best_s), _coords(oracle.best_t)):
            out.ok, out.reason = False, "oracle witness does not cover S+T"
        elif oracle.best_total > dec.witness_total:
            out.ok, out.reason = False, "oracle minimum exceeds the pipeline's witness total"
    return out


# --- certify_cli: in-process CLI with --certify-rank -----------------------


def cli_prepare(inst: Instance, path: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(inst.to_json())
    return path


def cli_run(path: str):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = sc_cli.run_command(["decompose", "--input", path, "--json", "--certify-rank"])
    return code, buf.getvalue()


def cli_check(inst: Instance, raw) -> Outcome:
    code, text = raw
    if code != 0:
        return Outcome(False, f"exit code {code}", "")
    report = json.loads(text)
    out = report["outputs"]
    sw = [tuple(p) for p in out["S_witness"]]
    tw = [tuple(p) for p in out["T_witness"]]
    cert = out["certificate"]
    total = out["witness_total"]
    c = counts(inst, out["degree"], out["bound"], cert["dim_vanishing"], cert["cover_size"],
               len(cert["patch_reps"]), total)
    reason = ""
    if not report["ok"] or not all(chk["passed"] for chk in report["checks"]):
        reason = "report has a failed check"
    elif "rank_certificates" not in out:
        reason = "report lacks rank certificates"
    elif total > out["bound"]:
        reason = f"witness total {total} exceeds bound {out['bound']}"
    elif not covers(inst, sw, tw):
        reason = "witness does not cover S+T (tuple re-check)"
    return Outcome(not reason, reason, witness_digest(sw, tw), c)


@dataclass(frozen=True)
class OpKind:
    prepare: object
    run: object
    check: object


@contextlib.contextmanager
def op_kind(name: str, scratch_dir: str):
    """The prepare/run/check triple for an op name used in workloads.py.

    The CLI op's instance file lives in scratch_dir and is removed on exit.
    """
    if name == "decompose":
        yield OpKind(lambda inst: inst, decompose_run, decompose_check)
    elif name == "tiny":
        yield OpKind(lambda inst: inst, tiny_run, tiny_check)
    elif name == "cli":
        path = os.path.join(scratch_dir, f"certify-{os.getpid()}.json")
        try:
            yield OpKind(lambda inst: cli_prepare(inst, path), cli_run, cli_check)
        finally:
            if os.path.exists(path):
                os.remove(path)
    else:
        raise ValueError(f"unknown op kind {name!r}")


def warm_up(workload, scratch_dir: str) -> None:
    """One untimed op per (q, n) of the workload, on a small fixed instance."""
    with op_kind(workload.op, scratch_dir) as kind:
        for q, n in workload.spaces:
            inst = warm_up_instance(q, n)
            out = kind.check(inst, kind.run(kind.prepare(inst)))
            if not out.ok:
                raise RuntimeError(f"warm-up op at q={q} n={n} failed: {out.reason}")
