"""Run one workload over several seeds and summarize each metric.

For every metric the summary gives the median, the first and third
quartiles (``statistics.quantiles(values, n=4)``) and the spread: the
distance between the quartiles as a share of the median.  A metric is
steady enough to carry a bound when its spread stays well inside it.

    python3 perfbench/repeat.py --workload search_5k --seeds 1-10 \\
        --seconds 24 [--trace 1] [--out summary.json]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_of(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def summarize(values: list[float]) -> dict:
    middle = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 \
        else (middle, middle, middle)
    return {"median": middle, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(middle) if middle else None,
            "values": values}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    runs = []
    for seed in seeds_of(args.seeds):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines() or [""]
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
        host = next((json.loads(line[5:]) for line in lines
                     if line.startswith("host ")), None)
        if done.returncode != 0 or result is None:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr}",
                  file=sys.stderr)
            return 1
        runs.append({"seed": seed, "host": host, **result})
        print(f"seed {seed}: " + ", ".join(
            f"{name}={metric['value']:.4g}"
            for name, metric in result["metrics"].items()), flush=True)

    names = runs[0]["metrics"]
    summary = {name: summarize([run["metrics"][name]["value"]
                                for run in runs]) for name in names}
    for name, stats in summary.items():
        spread = "n/a" if stats["spread"] is None \
            else f"{stats['spread']:.3f}"
        print(f"{name}: median {stats['median']:.4g} "
              f"[q1 {stats['q1']:.4g}, q3 {stats['q3']:.4g}] "
              f"spread {spread}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "seconds": args.seconds,
             "trace": args.trace, "runs": runs, "summary": summary},
            indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
