"""Run one workload over several seeds and report each end-to-end metric's
median and quartile spread against its bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload synthetic-pipeline --seeds 0-9 [--trace-seed 0]
                                [--record perfbench/baseline.json]

Runs are sequential, one process at a time. The spread is (Q3 - Q1) / median
over the seeds, with quartiles from statistics.quantiles(values, n=4).
With --record, the result lines, the summary and the traced result are
stored under the workload's name in that JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(results: list[dict], spec: dict) -> dict:
    out = {}
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        out[m["name"]] = {
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / med,
            "bound": m["bound"],
            "unit": m["unit"],
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--record", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    results = []
    for seed in parse_seeds(args.seeds):
        r = run_once(args.workload, seed, seconds, 0)
        r["seed"] = seed
        results.append(r)
        print(json.dumps(r), flush=True)
    summary = summarize(results, spec)
    for name, s in summary.items():
        flag = "ok" if s["spread"] < s["bound"] / 3 else "WIDE" if s["spread"] > s["bound"] else "within bound"
        print(f"{args.workload} {name}: median {s['median']:.6g} {s['unit']}, "
              f"spread {s['spread']:.4f} (bound {s['bound']}) {flag}")
    entry = {"seconds": seconds, "runs": results, "summary": summary}
    if args.trace_seed is not None:
        entry["traced"] = run_once(args.workload, args.trace_seed, seconds, 1)
        entry["traced"]["seed"] = args.trace_seed
        print(json.dumps(entry["traced"]), flush=True)
    if args.record:
        record = json.loads(args.record.read_text()) if args.record.exists() else {}
        record[args.workload] = entry
        args.record.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
