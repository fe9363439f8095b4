"""Steadiness of the end-to-end metrics across repeated runs.

    python3 perfbench/steady.py [--runs 10] [--save FILE] [--against FILE]

Runs every workload of BENCHMARK.json `--runs` times through run.py at the
file's `run_seconds`, each run in a fresh process with its own seed
(1, 2, ..., runs).  The workloads take turns, one run each,
so a change in the host's speed over the set reaches all of them alike.
Prints for every end-to-end metric the median, the quartiles
(`statistics.quantiles(n=4)`) and the spread (q3 - q1) / median next to the
metric's bound, with the share of failed operations.  `--save` writes the
raw results as JSON; `--against` compares medians and failed shares with a
saved set.  Exits 1 if a spread is above its bound, or, with `--against`, if
a median is worse than the saved one by more than the bound or a failed
share differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["run_s"] = time.perf_counter() - t0
    return result


def _worse(median: float, base: float, better: str) -> float:
    """How much worse `median` is than `base`, as a share of `base`."""
    change = median / base - 1.0
    return change if better == "lower" else -change


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--save", help="write the raw results to this JSON file")
    parser.add_argument("--against", help="compare medians with results saved earlier")
    args = parser.parse_args(argv)

    names = [w["name"] for w in bench["workloads"]]
    baseline = json.loads(Path(args.against).read_text()) if args.against else {}
    results: dict[str, list[dict]] = {name: [] for name in names}
    for seed in range(1, args.runs + 1):
        for workload in names:
            results[workload].append(_run(workload, seed, bench["run_seconds"]))
            print(f"  {workload} seed={seed} done", file=sys.stderr, flush=True)

    bad = False
    for workload, runs in results.items():
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        correct = all(r["correct"] for r in runs)
        run_s = statistics.mean(r["run_s"] for r in runs)
        line = f"{workload}: runs={len(runs)} correct={correct} failed share={shares} mean run {run_s:.1f} s"
        bad |= not correct
        if workload in baseline:
            base_shares = sorted({r["failed"] / r["attempted"] for r in baseline[workload]})
            same = shares == base_shares
            line += f" saved failed share={base_shares} {'same' if same else 'DIFFERENT'}"
            bad |= not same
        print(line)
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            flag = "ok" if spread <= bound / 3 else ("within bound" if spread <= bound else "WIDE")
            bad |= spread > bound
            line = (f"  {name:12s} median={med:10.4f} q1={q1:10.4f} q3={q3:10.4f} "
                    f"spread={spread:7.2%} bound={bound:.0%} {flag}")
            if workload in baseline:
                base = statistics.median(r["metrics"][name]["value"] for r in baseline[workload])
                worse = _worse(med, base, metric["better"])
                line += f" vs saved median {base:.4f} ({med / base - 1.0:+.2%})"
                if worse > bound:
                    line += " WORSE"
                    bad = True
            print(line)
    if args.save:
        Path(args.save).write_text(json.dumps(results, indent=1) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
