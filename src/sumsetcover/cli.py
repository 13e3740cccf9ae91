"""Command-line front end.

Subcommands: bound, decompose, verify, symmetric, check-capset,
check-sumfree, oracle, trials.  Instances come in as JSON files; reports go
to stdout as a human-readable summary followed by a JSON block (or JSON only
with --json).  Every checked inequality appears in the report with both
sides evaluated, so a report can be audited without the library.

Every check is a decompose.Check.  The library entry point that computes a
theorem check's values certifies it (raises BoundViolated): run_pipeline's
certificate, symmetric_witness, CapsetReport.checks, SumfreeReport.checks,
oracle_checks and bound_checks; RankAudit.checks (--certify-rank) are
reported, not raised.  This module formats them as they are and builds only
data verdicts: witnesses_within_parents and coverage_equals_sumset (verify,
and decompose's verify_decomposition re-check), matching_sumfree, and the
trials aggregates all_trials_verified and max_witness_total<=bound.

Exit codes: 0 ok, 1 verification failure, 2 invalid input, 3 cap refusal.
A printed report decides its own code: 1 exactly when the report's `ok` is
false (some check failed), else 0.  Without a report, 2 and 3 name the
refusal, and 1 means the pipeline raised BoundViolated (a bug).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time
from dataclasses import dataclass

from .decompose import (
    Check,
    _degree_and_bound,
    bound_checks,
    choose_degree,
    decompose,
    run_pipeline,
    symmetric_witness,
    verify_decomposition,
)
from .errors import (
    BoundViolated,
    DegreeTooHigh,
    DimensionMismatch,
    EnumerationTooLarge,
    ParseError,
    SearchTooLarge,
    ValidationError,
)
from .field import DEFAULT_ENUM_CAP, FieldVector, PointSet, check_space, random_pairs, sum_index
from .monomials import check_count_cap, degree_counts, growth_estimate
from .oracle import (
    DEFAULT_SEARCH_CAP,
    OrderedPairFamily,
    check_capset_bound,
    check_sumfree_bound,
    greedy_decomposition,
    is_matching_sumfree,
    oracle_checks,
    oracle_min_decomposition,
)
from .summatrix import check_audit_cap, rank_audit

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INVALID_INPUT = 2
EXIT_CAP_REFUSED = 3


@dataclass(frozen=True)
class ParsedInstance:
    """Validated content of an instance file."""

    q: int
    n: int
    s_set: PointSet
    t_set: PointSet | None
    s_order: tuple[FieldVector, ...]
    t_order: tuple[FieldVector, ...] | None


def _coords_field(raw: dict, key: str, q: int, n: int) -> list[tuple[int, ...]]:
    value = raw[key]
    if not isinstance(value, list):
        raise ParseError(f"field {key!r} must be a list of coordinate lists")
    out: list[tuple[int, ...]] = []
    for idx, item in enumerate(value):
        if not isinstance(item, list) or not all(type(c) is int for c in item):
            raise ParseError(f"{key}[{idx}] must be a list of integers")
        if len(item) != n:
            raise ValidationError(f"{key}[{idx}] has length {len(item)}, expected n={n}")
        if any(c < 0 or c >= q for c in item):
            raise ValidationError(f"{key}[{idx}] = {item} has a coordinate outside [0, {q})")
        out.append(tuple(item))
    if len(set(out)) != len(out):
        raise ValidationError(f"duplicate entries in {key}")
    return out


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc


def parse_instance(path: str) -> ParsedInstance:
    """Read and validate a JSON instance file.

    Required fields: q (prime), n (>= 1), S.  Optional: T, and S_order /
    T_order for the paired-family checks (defaulting to the file order of
    S and T).
    """
    raw = _read_json(path)
    if not isinstance(raw, dict):
        raise ParseError("instance file must be a JSON object")
    for field in ("q", "n", "S"):
        if field not in raw:
            raise ParseError(f"missing required field {field!r}")
    q, n = raw["q"], raw["n"]
    # type(), not isinstance(): JSON true/false load as bool, a subclass of int
    if type(q) is not int or type(n) is not int:
        raise ParseError("fields 'q' and 'n' must be integers")
    check_space(q, n)

    s_coords = _coords_field(raw, "S", q, n)
    s_set = PointSet.from_coords(q, n, s_coords)
    t_set = None
    t_coords: list[tuple[int, ...]] | None = None
    if "T" in raw:
        t_coords = _coords_field(raw, "T", q, n)
        t_set = PointSet.from_coords(q, n, t_coords)

    s_order = tuple(FieldVector(q, c) for c in (
        _coords_field(raw, "S_order", q, n) if "S_order" in raw else s_coords
    ))
    t_order = None
    if "T_order" in raw:
        t_order = tuple(FieldVector(q, c) for c in _coords_field(raw, "T_order", q, n))
    elif t_coords is not None:
        t_order = tuple(FieldVector(q, c) for c in t_coords)
    return ParsedInstance(q, n, s_set, t_set, s_order, t_order)


def _point_set_json(ps: PointSet) -> list[list[int]]:
    return [list(v.coords) for v in ps.ordered()]


def _digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _emit(report: dict, human_lines: list[str], as_json: bool) -> None:
    if not as_json:
        for line in human_lines:
            print(line)
        print("--- report (json) ---")
    print(json.dumps(report, indent=2))


def _require_t(inst: ParsedInstance) -> PointSet:
    if inst.t_set is None:
        raise ValidationError("this subcommand needs a 'T' field in the instance file")
    return inst.t_set


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (inputs payload, outputs, checks, human
# lines), and run_command builds the report and exit code from them

HandlerResult = tuple[dict, dict, tuple[Check, ...], list[str]]


def _cmd_bound(args) -> HandlerResult:
    q, n = args.q, args.n
    check_space(q, n)
    check_count_cap(q, n, DEFAULT_ENUM_CAP)
    # growth_estimate refuses its own counts and roots before doing any work
    seq = growth_estimate(q, args.growth_to, digits=args.digits) if args.growth_to else None
    table = degree_counts(q, n)
    rows = [
        {"d": d, "m_d": table.prefix(d), "bound_at_d": table.budget(d)}
        for d in range(0, (q - 1) * n + 1)
    ]
    best_d, best_bound = choose_degree(q, n)
    checks = bound_checks(q, n, best_bound)
    capset_bound = checks[0].rhs
    outputs = {
        "q": q,
        "n": n,
        "space_size": q**n,
        "degree_table": rows,
        "chosen_degree": best_d,
        "chosen_bound": best_bound,
        "capset_bound": capset_bound,
    }
    human = [
        f"bound table for q={q}, n={n} (space size {q**n})",
        "  d  m_d  budget(d) = 2*m_(d//2) + q^n - m_d",
    ]
    for row in rows:
        human.append(f"  {row['d']:<3}{row['m_d']:<5}{row['bound_at_d']}")
    human.append(f"chosen degree d={best_d} with bound {best_bound}")
    human.append(f"progression-free budget 3*m_((q-1)n/3) = {capset_bound}")
    if seq is not None:
        outputs["growth"] = [str(c) for c in seq]
        human.append(f"growth of bound^(1/n) up to n={args.growth_to}:")
        for i, c in enumerate(seq, start=1):
            human.append(f"  n={i:<4} {c}")
    return {"q": q, "n": n, "growth_to": args.growth_to}, outputs, checks, human


def _cmd_decompose(args) -> HandlerResult:
    inst = parse_instance(args.input)
    S, T = inst.s_set, _require_t(inst)
    chose = args.d is None
    if args.certify_rank and S.members and T.members:
        check_audit_cap(inst.q, inst.n, args.d, len(S), len(T), args.cap)
    # empty S or T: no pipeline runs, and the certificate records no checks
    run = run_pipeline(S, T, args.d, cap=args.cap) if S.members and T.members else None
    dec = run.decomposition if run else decompose(S, T, args.d, cap=args.cap)
    covers = verify_decomposition(S, T, dec.s_witness, dec.t_witness)
    checks = (Check("coverage_equals_sumset", covers), *dec.certificate.checks)
    if run is not None and args.certify_rank:
        audit = rank_audit(run)
        checks += audit.checks(run.rank_bound)
    outputs = {
        "q": inst.q,
        "n": inst.n,
        "sizes": {"S": len(S), "T": len(T), "S+T": len(run.sums) if run else 0},
        "degree": dec.degree,
        "degree_source": "minimized" if chose else "forced",
        "bound": dec.bound,
        "S_witness": _point_set_json(dec.s_witness),
        "T_witness": _point_set_json(dec.t_witness),
        "witness_total": dec.witness_total,
        "certificate": {
            "covered_rows": _point_set_json(dec.certificate.covered_rows),
            "covered_cols": _point_set_json(dec.certificate.covered_cols),
            "patch_reps": _point_set_json(dec.certificate.patch_reps),
            "uncovered_sums": _point_set_json(dec.certificate.uncovered_sums),
            "dim_vanishing": dec.certificate.dim_vanishing,
            "cover_size": dec.certificate.cover_size,
        },
    }
    if run is not None and args.certify_rank:
        outputs["rank_certificates"] = {
            "max_rank": audit.max_rank,
            "max_term_count": audit.max_term_count,
            "rank_bound": run.rank_bound,
        }
    if args.output:
        payload = {
            "q": inst.q,
            "n": inst.n,
            "S_witness": outputs["S_witness"],
            "T_witness": outputs["T_witness"],
        }
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=2)
                fh.write("\n")
        except OSError as exc:
            raise OSError(f"cannot write {args.output}: {exc.strerror or exc}") from exc
    human = [
        f"decompose: q={inst.q}, n={inst.n}, |S|={len(S)}, |T|={len(T)}, |S+T|={outputs['sizes']['S+T']}",
        f"degree d={dec.degree} ({outputs['degree_source']}), bound {dec.bound}",
        f"witness sizes |S*|={len(dec.s_witness)}, |T*|={len(dec.t_witness)} (total {dec.witness_total})",
        _human_checks(checks),
    ]
    return _instance_payload(inst, d=args.d, cap=args.cap), outputs, checks, human


def _cmd_verify(args) -> HandlerResult:
    inst = parse_instance(args.input)
    S, T = inst.s_set, _require_t(inst)
    raw = _read_json(args.witness)
    if not isinstance(raw, dict) or "S_witness" not in raw or "T_witness" not in raw:
        raise ParseError("witness file must be a JSON object with S_witness and T_witness")
    sw = PointSet.from_coords(inst.q, inst.n, _coords_field(raw, "S_witness", inst.q, inst.n))
    tw = PointSet.from_coords(inst.q, inst.n, _coords_field(raw, "T_witness", inst.q, inst.n))
    ok = verify_decomposition(S, T, sw, tw)
    checks = (
        Check("witnesses_within_parents", sw.issubset(S) and tw.issubset(T)),
        Check("coverage_equals_sumset", ok),
    )
    outputs = {"witness_total": len(sw) + len(tw), "verified": ok}
    human = [
        f"verify: witness total {len(sw) + len(tw)}",
        _human_checks(checks),
    ]
    return _instance_payload(inst, witness=raw), outputs, checks, human


def _cmd_symmetric(args) -> HandlerResult:
    inst = parse_instance(args.input)
    S = inst.s_set
    witness, dec, checks = symmetric_witness(S, args.d, cap=args.cap)
    outputs = {
        "q": inst.q,
        "n": inst.n,
        "degree": dec.degree,
        "bound": dec.bound,
        "witness": _point_set_json(witness),
        "witness_size": len(witness),
        "set_size": len(S),
    }
    human = [
        f"symmetric witness: |B| = {len(witness)} of |S| = {len(S)}, bound {dec.bound}",
        _human_checks(checks),
    ]
    return _instance_payload(inst, d=args.d, cap=args.cap), outputs, checks, human


def _cmd_check_capset(args) -> HandlerResult:
    inst = parse_instance(args.input)
    rep = check_capset_bound(inst.s_set, cap=args.cap)
    outputs = {
        "ap_free": rep.ap_free,
        "applicable": rep.applicable,
        "set_size": rep.set_size,
        "size_bound": rep.size_bound,
        "passed": rep.passed,
    }
    human = [
        f"check-capset: ap_free={rep.ap_free}, size {rep.set_size}, bound {rep.size_bound}"
        + ("" if rep.applicable else "  (not applicable)"),
        _human_checks(rep.checks),
    ]
    return _instance_payload(inst, cap=args.cap), outputs, rep.checks, human


def _cmd_check_sumfree(args) -> HandlerResult:
    inst = parse_instance(args.input)
    if inst.t_order is None:
        raise ValidationError("check-sumfree needs 'T' or 'T_order' in the instance file")
    fam = OrderedPairFamily(inst.s_order, inst.t_order)
    matching = is_matching_sumfree(fam)
    checks = (Check("matching_sumfree", matching),)
    outputs: dict = {"n_pairs": len(fam), "matching_sumfree": matching}
    if matching:
        rep = check_sumfree_bound(fam, cap=args.cap)
        checks += rep.checks
        outputs.update(size_bound=rep.size_bound, witness_total=rep.witness_total, passed=rep.passed)
    human = [
        f"check-sumfree: N={len(fam)}, matching_sumfree={matching}",
        _human_checks(checks),
    ]
    return _instance_payload(inst, cap=args.cap), outputs, checks, human


def _cmd_oracle(args) -> HandlerResult:
    inst = parse_instance(args.input)
    S, T = inst.s_set, _require_t(inst)
    res = oracle_min_decomposition(S, T, search_cap=args.search_cap)
    gs, gt = greedy_decomposition(S, T)
    dec = decompose(S, T, cap=args.cap)
    greedy_total = len(gs) + len(gt)
    checks = oracle_checks(S, T, res, greedy_total, dec)
    outputs = {
        "best_total": res.best_total,
        "best_S": _point_set_json(res.best_s),
        "best_T": _point_set_json(res.best_t),
        "greedy_total": greedy_total,
        "pipeline_total": dec.witness_total,
        "bound": dec.bound,
    }
    human = [
        f"oracle: minimum witness total {res.best_total} "
        f"(greedy {greedy_total}, pipeline {dec.witness_total}, bound {dec.bound})",
        _human_checks(checks),
    ]
    return _instance_payload(inst, search_cap=args.search_cap, cap=args.cap), outputs, checks, human


def _cmd_trials(args) -> HandlerResult:
    pairs = random_pairs(args.q, args.n, args.count, args.seed, args.p, cap=args.cap)
    rows = []
    for trial, (S, T) in enumerate(pairs):
        dec = decompose(S, T, args.d, cap=args.cap)
        # decompose has certified witness_total<=bound
        row = {
            "trial": trial,
            "sizes": {"S": len(S), "T": len(T), "S+T": len(sum_index(S, T))},
            "witness_total": dec.witness_total,
            "ok": verify_decomposition(S, T, dec.s_witness, dec.t_witness),
        }
        if args.oracle and len(S) + len(T) <= args.search_cap:
            row["oracle_total"] = oracle_min_decomposition(S, T, search_cap=args.search_cap).best_total
            row["ok"] = row["ok"] and row["oracle_total"] <= dec.witness_total
        rows.append(row)
    worst_total = max((row["witness_total"] for row in rows), default=0)
    d_used, bound = _degree_and_bound(args.q, args.n, args.d)
    checks = (
        Check("all_trials_verified", all(row["ok"] for row in rows)),
        Check("max_witness_total<=bound", worst_total <= bound, worst_total, bound),
    )
    outputs = {
        "q": args.q,
        "n": args.n,
        "count": args.count,
        "seed": args.seed,
        "p": args.p,
        "degree": d_used,
        "bound": bound,
        "trials": rows,
        "max_witness_total": worst_total,
    }
    human = [
        f"trials: {args.count} random pairs over q={args.q}, n={args.n}, seed={args.seed}",
        f"degree d={d_used}, bound {bound}, max witness total {worst_total}",
        _human_checks(checks),
    ]
    return {k: getattr(args, k) for k in ("q", "n", "count", "seed", "p", "d")}, outputs, checks, human


# ---------------------------------------------------------------------------


def _human_checks(checks: tuple[Check, ...]) -> str:
    parts = []
    for c in checks:
        tag = "ok" if c.passed else "FAIL"
        sides = "" if c.lhs is None else f": {c.lhs} vs {c.rhs}"
        parts.append(f"{c.name} [{tag}{sides}]")
    return "checks: " + "; ".join(parts)


def _instance_payload(inst: ParsedInstance, **extra) -> dict:
    payload = {
        "q": inst.q,
        "n": inst.n,
        "S": _point_set_json(inst.s_set),
        "T": _point_set_json(inst.t_set) if inst.t_set is not None else None,
        "S_order": [list(v.coords) for v in inst.s_order],
        "T_order": [list(v.coords) for v in inst.t_order] if inst.t_order is not None else None,
    }
    payload.update(extra)
    return payload


def _report(command: str, inputs_payload, outputs: dict, checks: tuple[Check, ...]) -> dict:
    """The report dict; each check's lhs and rhs appear only when not None."""
    return {
        "command": command,
        "inputs_digest": _digest(inputs_payload),
        "outputs": outputs,
        "checks": [{k: v for k, v in c._asdict().items() if v is not None} for c in checks],
        "ok": all(c.passed for c in checks),
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sumsetcover",
        description="Witness subsets covering sumsets in F_q^n, with exact certificates.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output only")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_sub(name: str, help_text: str, handler, *, instance: bool, cap: bool):
        """A subparser that runs handler, with --input and --cap when asked."""
        p = sub.add_parser(name, help=help_text, parents=[common])
        p.set_defaults(handler=handler)
        if instance:
            p.add_argument("--input", required=True, help="instance JSON file")
        if cap:
            p.add_argument("--cap", type=int, default=DEFAULT_ENUM_CAP,
                           help="maximum q^n allowed for full-space enumeration")
        return p

    p = add_sub("bound", "monomial counts, budgets, and growth", _cmd_bound, instance=False, cap=False)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--growth-to", type=int, default=0, help="also print bound^(1/n) up to this n")
    p.add_argument("--digits", type=int, default=30, help="decimal precision for growth values")

    p = add_sub("decompose", "construct a certified witness pair", _cmd_decompose, instance=True, cap=True)
    p.add_argument("--d", type=int, default=None, help="force the degree instead of minimizing")
    p.add_argument("--output", default=None, help="write the witness pair to this JSON file")
    p.add_argument("--certify-rank", action="store_true",
                   help="also emit per-basis-element rank certificates")

    p = add_sub("verify", "re-check a witness pair by enumeration", _cmd_verify, instance=True, cap=False)
    p.add_argument("--witness", required=True, help="JSON file with S_witness and T_witness")

    p = add_sub("symmetric", "witness subset B with B + S = S + S", _cmd_symmetric, instance=True, cap=True)
    p.add_argument("--d", type=int, default=None)

    add_sub("check-capset", "progression-free size check", _cmd_check_capset, instance=True, cap=True)
    add_sub("check-sumfree", "matching-only sum-free family check", _cmd_check_sumfree,
            instance=True, cap=True)

    p = add_sub("oracle", "exhaustive minimum witness total (tiny instances)", _cmd_oracle,
                instance=True, cap=True)
    p.add_argument("--search-cap", type=int, default=DEFAULT_SEARCH_CAP,
                   help="maximum |S|+|T| for the exhaustive search")

    p = add_sub("trials", "seeded random instances, decomposed and verified", _cmd_trials,
                instance=False, cap=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--p", type=float, default=0.5, help="per-point inclusion probability")
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--oracle", action="store_true",
                   help="also run the exhaustive oracle when instances are small enough")
    p.add_argument("--search-cap", type=int, default=DEFAULT_SEARCH_CAP)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: parse_args reads it and changes nothing in it."""
    return build_parser()


def run_command(argv: list[str]) -> int:
    """Execute one CLI invocation and return its exit code."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return int(code) if isinstance(code, int) else EXIT_INVALID_INPUT
    started = time.perf_counter()
    try:
        inputs_payload, outputs, checks, human = args.handler(args)
    except (ParseError, ValidationError, DimensionMismatch, DegreeTooHigh, ValueError) as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except (EnumerationTooLarge, SearchTooLarge) as exc:
        print(f"error: refused by resource cap: {exc}", file=sys.stderr)
        return EXIT_CAP_REFUSED
    except BoundViolated as exc:
        print(f"error: certified bound violated (bug): {exc}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except OSError as exc:
        # reads raise ParseError; what reaches here is the --output write
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    report = _report(args.subcommand, inputs_payload, outputs, checks)
    report["argv"] = list(argv)
    report["timing_ms"] = round((time.perf_counter() - started) * 1000.0, 3)
    _emit(report, human, args.json)
    return EXIT_OK if report["ok"] else EXIT_VERIFY_FAILED


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
