#!/usr/bin/env python3
"""Parent-vs-change comparison on the end-to-end benchmark.

Extracts two git revisions into a scratch directory and runs ``k``
alternating pairs per workload through each revision's own, unchanged
``e2ebench/run.py`` (untraced, ``run_seconds`` from ``BENCHMARK.json``).
Pair ``i`` uses seed ``seed0 + i`` on both sides; even pairs run the
base first, odd pairs the change.  Then, per workload and end-to-end
metric, it prints both medians, both interquartile ranges, the change's
relative move in the metric's ``better`` direction and pass/fail
against the metric's bound, plus whether the ``test_*`` metrics are
bit-equal at matching seeds.

It exits non-zero when any metric moves past its bound, when more of
the change's runs fail their output checks than the base's, or when a
larger share of the change's operations fails.

``--claim METRIC@WORKLOAD`` (repeatable) also judges a claimed gain: it
holds only when the change wins at least 9 of every 10 pairs run (a tie
counts for neither side, a pair missing a value is not a win) and its
median beats the base's by more than the base's interquartile range.
A claim that does not hold fails the comparison too.

Usage (from the repository root)::

    python3 benchmarks/e2e_compare.py BASE CHANGE --pairs 10 \\
        --workload pipeline-paper --json /tmp/compare.json \\
        --claim train_windows_per_s@pipeline-paper

``BASE`` and ``CHANGE`` are any git revisions (``HEAD~1``, a sha, a
branch).  Each is extracted with ``git archive``, so the runs see
exactly the committed files, and nothing is registered in ``.git``.
Without ``--workload`` every workload of ``BENCHMARK.json`` runs.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# Judging (pure: no git, no subprocess)
# ----------------------------------------------------------------------
def parse_result(stdout: str) -> Optional[dict]:
    """The result object of one ``e2ebench/run.py`` run: its last stdout
    line, ``{"correct", "attempted", "failed", "metrics"}``; ``None`` if
    that line is not such an object (the run crashed)."""
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if not isinstance(result, dict) or "metrics" not in result:
        return None
    return result


def _quartiles(values: List[float]):
    """``(median, q3 - q1)`` of at least one value."""
    median = statistics.median(values)
    if len(values) < 2:
        return median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q3 - q1


def _value(run: Optional[dict], name: str) -> Optional[float]:
    if run is None:
        return None
    entry = run["metrics"].get(name)
    if entry is None or entry.get("value") is None:
        return None
    value = float(entry["value"])
    return value if math.isfinite(value) else None


def _worsening(base: float, change: float, better: str) -> float:
    """The change's relative move against ``better`` (positive = worse)."""
    delta = change - base if better == "lower" else base - change
    if base == 0:
        return 0.0 if delta == 0 else math.copysign(math.inf, delta)
    return delta / abs(base)


def judge(end_to_end: List[dict], base: List[Optional[dict]],
          change: List[Optional[dict]]) -> dict:
    """Judge one workload's runs.

    ``end_to_end`` is ``BENCHMARK.json``'s metric list; ``base[i]`` and
    ``change[i]`` are the parsed results of pair ``i`` (``None`` for a
    crashed run).  A metric that neither side reports is skipped.  A
    metric fails when the change's median moves past its bound, or when
    a change run lacks a value the base reports at the same seed.
    """
    metrics = []
    for spec in end_to_end:
        name = spec["name"]
        pairs = [(_value(b, name), _value(c, name))
                 for b, c in zip(base, change)]
        base_values = [b for b, _ in pairs if b is not None]
        change_values = [c for _, c in pairs if c is not None]
        if not base_values and not change_values:
            continue
        row = {"name": name, "unit": spec["unit"],
               "better": spec["better"], "bound": spec["bound"],
               "base_n": len(base_values), "change_n": len(change_values)}
        lost = sum(1 for b, c in pairs if b is not None and c is None)
        if not base_values or not change_values:
            row.update(passed=False, reason="no values on one side")
            metrics.append(row)
            continue
        row["base_median"], row["base_iqr"] = _quartiles(base_values)
        row["change_median"], row["change_iqr"] = _quartiles(change_values)
        row["worse_by"] = _worsening(row["base_median"],
                                     row["change_median"], spec["better"])
        passed = row["worse_by"] <= spec["bound"] and lost == 0
        row["passed"] = passed
        if lost:
            row["reason"] = f"{lost} change run(s) lost the value"
        elif not passed:
            row["reason"] = "worse than its bound"
        if name.startswith("test_"):
            matched = [(b, c) for b, c in pairs
                       if b is not None and c is not None]
            row["bit_equal"] = sum(1 for b, c in matched if b == c)
            row["matched"] = len(matched)
        metrics.append(row)

    def runs_failed(runs):
        return sum(1 for r in runs if r is None or not r.get("correct"))

    def failed_share(runs):
        attempted = sum(r.get("attempted", 0) for r in runs if r)
        failed = sum(r.get("failed", 0) for r in runs if r)
        return failed / attempted if attempted else 0.0

    checks = {
        "base_runs_failed": runs_failed(base),
        "change_runs_failed": runs_failed(change),
        "base_failed_share": failed_share(base),
        "change_failed_share": failed_share(change),
    }
    problems = [f"{row['name']}: {row['reason']}" for row in metrics
                if not row["passed"]]
    if checks["change_runs_failed"] > checks["base_runs_failed"]:
        problems.append(
            f"{checks['change_runs_failed']} change run(s) failed their "
            f"checks against {checks['base_runs_failed']} for the base")
    if checks["change_failed_share"] > checks["base_failed_share"]:
        problems.append(
            f"failed operations {checks['change_failed_share']:.2%} "
            f"against {checks['base_failed_share']:.2%} for the base")
    return {"metrics": metrics, "checks": checks, "problems": problems,
            "passed": not problems}


# A claimed gain must win this share of the pairs run.
CLAIM_WIN_SHARE = 0.9


def judge_claim(spec: dict, base: List[Optional[dict]],
                change: List[Optional[dict]]) -> dict:
    """Judge a claimed gain on one ``BENCHMARK.json`` metric ``spec``
    over the parsed results of the pairs (``None`` for a crashed run).

    The claim holds when the change is strictly better at matching
    seeds in at least :data:`CLAIM_WIN_SHARE` of the pairs run and its
    median is better than the base's by more than the base's IQR.
    """
    name, better = spec["name"], spec["better"]
    pairs = [(_value(b, name), _value(c, name))
             for b, c in zip(base, change)]
    wins = sum(1 for b, c in pairs if b is not None and c is not None
               and (c > b if better == "higher" else c < b))
    row = {"name": name, "better": better, "pairs": len(pairs),
           "wins": wins}
    base_values = [b for b, _ in pairs if b is not None]
    change_values = [c for _, c in pairs if c is not None]
    if not base_values or not change_values:
        row.update(passed=False, reason="no values on one side")
        return row
    row["base_median"], row["base_iqr"] = _quartiles(base_values)
    row["change_median"], _ = _quartiles(change_values)
    gain = row["change_median"] - row["base_median"]
    row["gain"] = gain if better == "higher" else -gain
    reasons = []
    if wins < CLAIM_WIN_SHARE * len(pairs):
        reasons.append(f"won {wins} of {len(pairs)} pairs")
    if row["gain"] <= row["base_iqr"]:
        reasons.append("median gain not beyond the base's IQR")
    row["passed"] = not reasons
    if reasons:
        row["reason"] = "; ".join(reasons)
    return row


def format_claim(workload: str, row: dict) -> str:
    """One line stating a claim's win count and verdict."""
    head = (f"claim {row['name']}@{workload}: change wins {row['wins']}/"
            f"{row['pairs']} pairs")
    if "base_median" in row:
        head += (f", median {row['base_median']:.5g} -> "
                 f"{row['change_median']:.5g} (gain {row['gain']:+.4g}, "
                 f"base IQR {row['base_iqr']:.4g})")
    status = "HOLDS" if row["passed"] else f"FAILS ({row['reason']})"
    return f"{head}  {status}"


def format_verdict(workload: str, verdict: dict) -> str:
    """A fixed-width table of one workload's verdict."""
    lines = [f"== {workload}",
             f"{'metric':<22}{'base median':>13}{'IQR':>10}"
             f"{'change median':>15}{'IQR':>10}{'worse by':>10}"
             f"{'bound':>7}  verdict"]
    for row in verdict["metrics"]:
        if "base_median" not in row:
            lines.append(f"{row['name']:<22}{'':>65}  FAIL "
                         f"({row['reason']})")
            continue
        status = "ok" if row["passed"] else "FAIL"
        if "bit_equal" in row:
            status += f"  bit-equal {row['bit_equal']}/{row['matched']}"
        lines.append(
            f"{row['name']:<22}{row['base_median']:>13.5g}"
            f"{row['base_iqr']:>10.3g}{row['change_median']:>15.5g}"
            f"{row['change_iqr']:>10.3g}{row['worse_by']:>+10.1%}"
            f"{row['bound']:>7.0%}  {status}")
    checks = verdict["checks"]
    lines.append(
        f"runs failing checks: base {checks['base_runs_failed']}, change "
        f"{checks['change_runs_failed']}; failed operations: base "
        f"{checks['base_failed_share']:.2%}, change "
        f"{checks['change_failed_share']:.2%}")
    lines.extend(f"PROBLEM: {problem}" for problem in verdict["problems"])
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Running
# ----------------------------------------------------------------------
def extract(revision: str, scratch: Path) -> Path:
    """The committed tree of ``revision`` under ``scratch/<sha>``."""
    sha = subprocess.run(
        ["git", "rev-parse", "--verify", f"{revision}^{{commit}}"],
        cwd=REPO_ROOT, check=True, capture_output=True,
        text=True).stdout.strip()
    target = scratch / sha[:12]
    if not (target / "e2ebench" / "run.py").exists():
        target.mkdir(parents=True, exist_ok=True)
        archive = subprocess.run(["git", "archive", sha], cwd=REPO_ROOT,
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(target)], input=archive,
                       check=True)
    return target


def run_once(checkout: Path, workload: str, seed: int, seconds: int,
             timeout: float) -> dict:
    """One untraced benchmark run; returns its parsed result (or
    ``None``), exit code and wall time."""
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, "e2ebench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"],
            cwd=checkout, capture_output=True, text=True, timeout=timeout)
        stdout, code = proc.stdout, proc.returncode
    except subprocess.TimeoutExpired as exc:
        stdout, code = exc.stdout or "", None
        if isinstance(stdout, bytes):
            stdout = stdout.decode(errors="replace")
    return {"result": parse_result(stdout), "exit_code": code,
            "wall_s": round(time.monotonic() - start, 1)}


def _run_line(side: str, seed: int, run: dict, names: List[str]) -> str:
    result = run["result"]
    if result is None:
        return f"  {side:<6} seed {seed:>3}  CRASHED (exit {run['exit_code']})"
    values = " ".join(
        f"{name}={_value(result, name):.5g}" for name in names
        if _value(result, name) is not None)
    return (f"  {side:<6} seed {seed:>3}  correct={result['correct']} "
            f"failed={result['failed']}/{result['attempted']}  {values}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="git revision of the parent")
    parser.add_argument("change", help="git revision of the change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed0", type=int, default=1,
                        help="seed of the first pair (default 1)")
    parser.add_argument("--scratch", default=str(REPO_ROOT / ".e2ebench"
                                                 / "compare"),
                        help="where the revisions are extracted")
    parser.add_argument("--json", help="write runs and verdicts here")
    parser.add_argument("--claim", action="append", default=[],
                        metavar="METRIC@WORKLOAD",
                        help="judge a claimed gain (repeatable)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    known = [w["name"] for w in spec["workloads"]]
    workloads = args.workload or known
    unknown = sorted(set(workloads) - set(known))
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; BENCHMARK.json "
                     f"lists {known}")
    metric_specs = {m["name"]: m for m in spec["end_to_end"]}
    claims: Dict[str, List[dict]] = {}
    for claim in args.claim:
        metric, _, workload = claim.partition("@")
        if metric not in metric_specs or workload not in workloads:
            parser.error(f"--claim {claim!r}: need METRIC@WORKLOAD with "
                         f"an end-to-end metric of BENCHMARK.json and a "
                         f"workload that runs ({workloads})")
        claims.setdefault(workload, []).append(metric_specs[metric])
    seconds = int(spec["run_seconds"])
    timeout = 60.0 * seconds + 600.0
    names = [m["name"] for m in spec["end_to_end"]]
    scratch = Path(args.scratch).resolve()
    checkouts = {"base": extract(args.base, scratch),
                 "change": extract(args.change, scratch)}
    print(f"base {args.base} -> {checkouts['base']}")
    print(f"change {args.change} -> {checkouts['change']}")

    report: Dict[str, dict] = {}
    for workload in workloads:
        runs: Dict[str, List[dict]] = {"base": [], "change": []}
        print(f"-- {workload}: {args.pairs} pairs, --seconds {seconds}",
              flush=True)
        for i in range(args.pairs):
            seed = args.seed0 + i
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            for side in order:
                run = run_once(checkouts[side], workload, seed, seconds,
                               timeout)
                run["seed"] = seed
                runs[side].append(run)
                print(_run_line(side, seed, run, names), flush=True)
        base_results = [r["result"] for r in runs["base"]]
        change_results = [r["result"] for r in runs["change"]]
        verdict = judge(spec["end_to_end"], base_results, change_results)
        verdict["claims"] = [judge_claim(metric, base_results,
                                         change_results)
                             for metric in claims.get(workload, [])]
        for row in verdict["claims"]:
            if not row["passed"]:
                verdict["problems"].append(
                    f"claimed gain in {row['name']}: {row['reason']}")
                verdict["passed"] = False
        print(format_verdict(workload, verdict), flush=True)
        for row in verdict["claims"]:
            print(format_claim(workload, row), flush=True)
        report[workload] = {"runs": runs, "verdict": verdict}

    passed = all(entry["verdict"]["passed"] for entry in report.values())
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"base": args.base, "change": args.change,
             "pairs": args.pairs, "seed0": args.seed0,
             "seconds": seconds, "passed": passed, "workloads": report},
            indent=1) + "\n")
    print("PASS" if passed else "FAIL")
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
