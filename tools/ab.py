"""Alternating A/B runs of the benchmark on two trees, summarised per metric.

    python3 tools/ab.py PARENT CHANGE forecast_fit:10 classify_fit:6 \\
        --seed 1 --out BENCH_29.json

``PARENT`` and ``CHANGE`` are repository trees.  For each ``WORKLOAD:PAIRS``
the script runs each tree's own ``perfbench/run.py --trace 0`` once per
pair, one process at a time, with seeds ``--seed``, ``--seed + 1``, ...;
the parent runs first in even pairs and the change in odd ones.  From each
run it keeps the ``env`` line, the ``gate`` lines and the final JSON line.

It then prints, per workload and end-to-end metric of ``BENCHMARK.json``
(read from the repository that holds this script), each side's median and
interquartile range, the pairs the change won (ties count for neither), the
change's relative worsening against its bound, and a verdict:

* ``regressed``: the change's median is worse than the parent's by more
  than the bound;
* ``unresolved``: not regressed, but the parent's own runs spread (by
  interquartile range over median) wider than the bound, and not every run
  of the change reads better than every run of the parent;
* ``within bound``: neither.

``gain rule met`` marks a metric whose change won at least nine in ten pairs
with medians further apart than the parent's interquartile range.  Every
failed gate and a rise in the share of failed operations are listed.  The
``--out`` file holds the env records, every run's metrics and the summary.
The exit code is 1 when a metric regressed, a gate failed, a run crashed or
the failed-ops share rose, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py --trace 0`` run in ``tree``, parsed."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    return parse_run(proc.stdout, proc.returncode, proc.stderr)


def parse_run(stdout: str, code: int = 0, stderr: str = "") -> dict:
    """The env record, failed gates and final JSON fields of one run's output."""
    lines = stdout.splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), None)
    gates = [line.split()[1:3] for line in lines if line.startswith("gate ")]
    try:
        final = json.loads(lines[-1])
    except (IndexError, ValueError):
        final = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    return {
        "exit": code,
        "env": env,
        "correct": final["correct"],
        "attempted": final["attempted"],
        "failed": final["failed"],
        "metrics": {k: m["value"] for k, m in final["metrics"].items()},
        "failed_gates": [name for name, status in gates if status != "PASS"],
        "stderr": stderr[-2000:] if code not in (0, 1) else "",
    }


def _stats(values: list) -> dict:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(med), "q1": float(q1), "q3": float(q3), "iqr": float(q3 - q1)}


def summarise(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per workload: each metric's verdict, the failed gates and failed-ops shares.

    ``runs`` holds records with ``workload``, ``pair``, ``side`` and the
    fields of :func:`parse_run`; ``end_to_end`` is ``BENCHMARK.json``'s list.
    """
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        pairs = {}
        for r in mine:
            pairs.setdefault(r["pair"], {})[r["side"]] = r
        pairs = [p for _, p in sorted(pairs.items()) if len(p) == 2]
        metrics = {}
        for spec in end_to_end:
            name, lower = spec["name"], spec["better"] == "lower"
            got = [(p["parent"]["metrics"].get(name), p["change"]["metrics"].get(name))
                   for p in pairs]
            got = [(a, b) for a, b in got if a is not None and b is not None]
            if not got:
                metrics[name] = {"verdict": "no data"}
                continue
            a, b = (np.array(side, dtype=float) for side in zip(*got))
            pa, pb = _stats(a), _stats(b)
            sign = 1.0 if lower else -1.0  # > 0 where the change reads worse
            worse_by = sign * (pb["median"] - pa["median"]) / abs(pa["median"])
            wins = int(np.sum(sign * (b - a) < 0))
            spread = pa["iqr"] / abs(pa["median"])
            all_better = bool(np.max(sign * b) < np.min(sign * a))
            if worse_by > spec["bound"]:
                verdict = "regressed"
            elif spread > spec["bound"] and not all_better:
                verdict = "unresolved"
            else:
                verdict = "within bound"
            metrics[name] = {
                "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
                "parent": pa, "change": pb, "pairs": len(got), "wins": wins,
                "worse_by": worse_by, "parent_spread": spread, "verdict": verdict,
                "gain_rule_met": bool(wins >= 0.9 * len(got)
                                      and -sign * (pb["median"] - pa["median"]) > pa["iqr"]),
            }
        failed_ops = {}
        for side in SIDES:
            att = sum(r["attempted"] for r in mine if r["side"] == side)
            failed_ops[side] = (sum(r["failed"] for r in mine if r["side"] == side) / att
                                if att else None)
        summary[workload] = {
            "pairs": len(pairs),
            "metrics": metrics,
            "failed_gates": [f"{r['side']} seed {r['seed']}: {g}" for r in mine
                             for g in r["failed_gates"]
                             + ([f"exit {r['exit']}"] if r["exit"] not in (0, 1) else [])],
            "failed_ops_share": failed_ops,
            "failed_ops_rose": (failed_ops["parent"] is not None
                                and failed_ops["change"] is not None
                                and failed_ops["change"] > failed_ops["parent"]),
        }
    return summary


def summary_lines(summary: dict) -> list[str]:
    """The summary as readable lines."""
    out = []
    for workload, s in summary.items():
        out.append(f"{workload}: {s['pairs']} pairs")
        for name, m in s["metrics"].items():
            if "parent" not in m:
                out.append(f"  {name}: {m['verdict']}")
                continue
            pa, pb = m["parent"], m["change"]
            out.append(
                f"  {name} ({m['unit']}, {m['better']} is better): "
                f"parent {pa['median']:.6g} [iqr {pa['iqr']:.3g}] -> "
                f"change {pb['median']:.6g} [iqr {pb['iqr']:.3g}], "
                f"won {m['wins']}/{m['pairs']}, worse by {m['worse_by']:+.3f} "
                f"(bound {m['bound']}), parent spread {m['parent_spread']:.3f}: "
                f"{m['verdict']}" + ("; gain rule met" if m["gain_rule_met"] else ""))
        for gate in s["failed_gates"]:
            out.append(f"  FAILED {gate}")
        shares = s["failed_ops_share"]
        out.append(f"  failed-ops share: parent {shares['parent']} change {shares['change']}"
                   + (" (ROSE)" if s["failed_ops_rose"] else ""))
    return out


def _workload_spec(text: str) -> tuple[str, int]:
    name, _, pairs = text.partition(":")
    try:
        n = int(pairs or 10)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD[:PAIRS], got {text!r}") from None
    if n < 1:
        raise argparse.ArgumentTypeError(f"pairs must be >= 1, got {n}")
    return name, n


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", help="the parent tree")
    p.add_argument("change", help="the changed tree")
    p.add_argument("workloads", nargs="+", type=_workload_spec, metavar="WORKLOAD[:PAIRS]",
                   help="a BENCHMARK.json workload and its pair count (default 10)")
    p.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    p.add_argument("--out", required=True, help="JSON file to write, e.g. BENCH_29.json")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    known = {w["name"] for w in bench["workloads"]}
    for name, _ in args.workloads:
        if name not in known:
            p.error(f"unknown workload {name!r}; choose from {sorted(known)}")
    seconds = bench["run_seconds"]
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}

    runs = []
    for workload, n in args.workloads:
        for pair in range(n):
            seed = args.seed + pair
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                run = run_once(trees[side], workload, seed, seconds)
                runs.append({"workload": workload, "pair": pair, "seed": seed,
                             "side": side, **run})
                print(f"{workload} pair {pair} seed {seed} {side}: exit {run['exit']}",
                      file=sys.stderr, flush=True)

    summary = summarise(runs, bench["end_to_end"])
    print("\n".join(summary_lines(summary)))
    with open(args.out, "w") as fh:
        json.dump({"trees": {side: os.path.basename(t) for side, t in trees.items()},
                   "workloads": dict(args.workloads), "first_seed": args.seed,
                   "seconds": seconds, "runs": runs, "summary": summary},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
    bad = any(m.get("verdict") == "regressed" for s in summary.values()
              for m in s["metrics"].values())
    bad = bad or any(s["failed_gates"] or s["failed_ops_rose"] for s in summary.values())
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
