#!/usr/bin/env python3
"""Parent-versus-change comparison of benchmark results (python3 stdlib only).

Record alternating pairs, each pair running both commits on one seed:

    python3 benchmark/compare.py run --parent ../parent --change . \
        --pairs 10 --out pairs.jsonl [--workloads serve-cul,train-ml]

Judge them:

    python3 benchmark/compare.py judge pairs.jsonl

The rule, per workload and end-to-end metric. The gated metrics, with
bound and direction, come from BENCHMARK.json; the measured, not gated
ones (rps, p50_ms, p90_ms, sweep_s) from the line the benchmark prints
before its result, with the directions below.

* at least 10 pairs, with the side that runs first alternating;
* a gain needs the change to win at least 9 in 10 pairs (ties count for
  neither side) and the medians to differ by more than the parent's
  interquartile range;
* a regression is a change median worse than the parent median by more
  than the bound; where either side's spread exceeds the bound the metric
  is "unresolved", unless every change run beats every parent run
  (setup_s is exempt from the spread test: only its median is held to its
  bound). A metric that is not gated has no bound: it is a gain or
  "not gated";
* a change with more failed operations than the parent is flagged, and
  none of its gains count.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

MIN_PAIRS = 10
WIN_SHARE = 0.9
# Set-up time is a few cold starts of tens of milliseconds, so its spread
# is wide; only its median is held to its bound, never its spread.
SPREAD_NOT_GATED = {"setup_s"}
# The line before the result line that carries the metrics measured on
# every run but not gated, and their directions.
MEASURED_PREFIX = "measured-not-gated "
MEASURED = {"rps": "higher", "p50_ms": "lower", "p90_ms": "lower",
            "sweep_s": "lower"}


def load_benchmark(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(checkout, workload, seed):
    proc = subprocess.run(
        ["bash", "benchmark/run.sh", "--workload", workload, "--seed",
         str(seed), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        measured = [line for line in lines if line.startswith(MEASURED_PREFIX)]
        result["measured"] = (json.loads(measured[-1][len(MEASURED_PREFIX):])
                              if measured else {})
        return result
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr[-2000:])
        return None


def cmd_run(args):
    bench = load_benchmark(args.change)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    with open(args.out, "a") as out:
        for pair in range(args.pairs):
            seed = args.first_seed + pair
            sides = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
            for workload in workloads:
                for side in sides:
                    checkout = args.parent if side == "parent" else args.change
                    result = run_once(checkout, workload, seed)
                    record = {"pair": pair, "side": side, "workload": workload,
                              "seed": seed, "result": result}
                    out.write(json.dumps(record) + "\n")
                    out.flush()
                    print(f"pair {pair} {workload} {side}: "
                          f"{'ok' if result else 'no result'}", file=sys.stderr)


def better(value, other, direction):
    return value < other if direction == "lower" else value > other


def spread(values):
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def judge_metric(parent, change, direction, bound, gate_spread=True):
    """Verdict for one metric; `bound` None means the metric is not gated."""
    p1, pmed, p3 = spread(parent)
    c1, cmed, c3 = spread(change)
    wins = sum(better(c, p, direction) for p, c in zip(parent, change))
    losses = sum(better(p, c, direction) for p, c in zip(parent, change))
    parent_iqr = p3 - p1
    gap = cmed - pmed
    improved = better(cmed, pmed, direction)
    worse_by = (-gap if direction == "higher" else gap) / abs(pmed) if pmed else 0.0
    all_better = all(better(c, p, direction) for c in change for p in parent)
    rel_spread = max(parent_iqr / abs(pmed) if pmed else 0.0,
                     (c3 - c1) / abs(cmed) if cmed else 0.0)
    if improved and wins >= WIN_SHARE * len(parent) and abs(gap) > parent_iqr:
        verdict = "gain"
    elif bound is None:
        verdict = "not gated"
    elif gate_spread and rel_spread > bound and not all_better:
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "regression"
    else:
        verdict = "no regression"
    return {"parent": (p1, pmed, p3), "change": (c1, cmed, c3), "wins": wins,
            "losses": losses, "verdict": verdict}


def cmd_judge(args):
    bench = load_benchmark(args.root)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    records = [json.loads(line) for line in open(args.results) if line.strip()]
    status = 0
    for workload in dict.fromkeys(r["workload"] for r in records):
        rows = [r for r in records if r["workload"] == workload]
        pairs = {}
        order = []
        for r in rows:
            pairs.setdefault(r["pair"], {})[r["side"]] = r["result"]
            if len(pairs[r["pair"]]) == 1:
                order.append(r["side"])
        complete = [p for p in pairs.values()
                    if p.get("parent") and p.get("change")]
        alternating = all(a != b for a, b in zip(order, order[1:]))
        print(f"== {workload}: {len(complete)} complete pairs"
              f"{'' if alternating else ' (first side does NOT alternate)'}")
        if len(complete) < MIN_PAIRS or not alternating:
            print(f"   needs at least {MIN_PAIRS} alternating pairs; no verdict")
            status = 1
            continue
        failed = {side: sum(p[side]["failed"] for p in complete)
                  for side in ("parent", "change")}
        more_failures = failed["change"] > failed["parent"]
        if more_failures:
            print(f"   FLAG: change failed {failed['change']} operations, "
                  f"parent {failed['parent']}; its gains do not count")
            status = 1
        judged = [(name, "metrics", spec["better"], spec["bound"], spec["unit"])
                  for name, spec in metrics.items()]
        judged += [(name, "measured", direction, None,
                    complete[0]["parent"]["measured"][name]["unit"])
                   for name, direction in MEASURED.items()
                   if all(name in p[side].get("measured", {})
                          for p in complete for side in ("parent", "change"))]
        for name, group, direction, bound, unit in judged:
            parent = [p["parent"][group][name]["value"] for p in complete]
            change = [p["change"][group][name]["value"] for p in complete]
            v = judge_metric(parent, change, direction, bound,
                             name not in SPREAD_NOT_GATED)
            if more_failures and v["verdict"] == "gain":
                v["verdict"] = "gain void (more failures)"
            if v["verdict"] in ("regression", "unresolved"):
                status = 1
            pq, cq = v["parent"], v["change"]
            gate = "not gated" if bound is None else f"bound {bound:.0%}"
            print(f"   {name:14s} {unit:6s} parent {pq[1]:.6g} "
                  f"[{pq[0]:.6g}, {pq[2]:.6g}]  change {cq[1]:.6g} "
                  f"[{cq[0]:.6g}, {cq[2]:.6g}]  wins {v['wins']}/{len(complete)}"
                  f"  {gate}  -> {v['verdict']}")
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="record alternating parent/change pairs")
    run.add_argument("--parent", required=True, help="parent checkout")
    run.add_argument("--change", required=True, help="change checkout")
    run.add_argument("--pairs", type=int, default=MIN_PAIRS)
    run.add_argument("--first-seed", type=int, default=1000)
    run.add_argument("--workloads", default="")
    run.add_argument("--out", required=True)
    judge = sub.add_parser("judge", help="apply the comparison rule")
    judge.add_argument("results")
    judge.add_argument("--root", default=os.path.join(
        os.path.dirname(os.path.abspath(__file__)), ".."),
        help="checkout holding BENCHMARK.json")
    args = parser.parse_args()
    if args.command == "run":
        cmd_run(args)
        return 0
    return cmd_judge(args)


if __name__ == "__main__":
    sys.exit(main())
