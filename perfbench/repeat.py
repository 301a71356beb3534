"""Run the benchmark over several seeds and summarise every metric.

    python3 perfbench/repeat.py --workload desk --seeds 1-10 [--trace 0|1] [--out F]

For each metric prints the median, the quartiles (``statistics.quantiles``,
n=4) and the spread, the distance between the quartiles as a share of the
median; ``--out`` also writes them, with every run's result, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0, "n": len(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    runs = []
    for seed in _seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--trace", args.trace],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        runs.append({"seed": seed, "info": lines[:-1], **result})
        flat = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} "
              + " ".join(f"{k}={v:.6g}" for k, v in sorted(flat.items())), flush=True)

    names = sorted(runs[0]["metrics"])
    summary = {k: summarise([r["metrics"][k]["value"] for r in runs]) for k in names}
    for k in names:
        s = summary[k]
        print(f"{args.workload:5s} {k:34s} median {s['median']:.6g}  "
              f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "trace": args.trace,
                       "summary": summary, "runs": runs}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
