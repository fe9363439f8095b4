"""Benchmark of the `bosegas` CLI pipelines: one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]
    python3 perfbench/run.py --workload NAME --seed N --generate DIR

Runs from the root of a source checkout and imports `bosegas` from its
`src/`.  One caller runs the workload's items back to back (closed loop)
through `bosegas.cli.main`, in whole rounds, until `--seconds` have passed;
every output is checked against `oracles` outside the timed region.  The
last line of standard output is one JSON object: with `--trace 0` the
end-to-end metrics, with `--trace 1` the per-layer metrics from spans around
each layer's public functions.  `--workload all` runs every workload in a
fresh process of its own and prints one table.  Reports, generated inputs
and traces go to `.perfbench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 3
IMPORT_SAMPLES = 3
THREADS = str(min(2, os.cpu_count() or 1))

# at most nproc (= 2) threads in BLAS and OpenMP pools; scipy.fft defaults to one
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, THREADS)


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def setup_seconds(configs: list[Path]) -> float:
    """Median over fresh interpreters of `import bosegas.cli` plus load_config."""
    code = (
        "import sys, time\n"
        "t0 = time.perf_counter()\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import bosegas.cli\n"
        f"for path in {[str(p) for p in configs]!r}:\n"
        "    bosegas.cli.load_config(path)\n"
        "print(time.perf_counter() - t0)\n"
    )
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, cwd=ROOT
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def measure(workload, seconds: float, tracer) -> dict:
    """Run whole rounds of the items until `seconds` have passed."""
    import bosegas.cli as cli

    rounds = []
    item_s = {item.key: [] for item in workload.items}
    attempted = failed = 0
    problems: list[str] = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        body = 0.0
        for item in workload.items:
            shutil.rmtree(item.out, ignore_errors=True)
            err = io.StringIO()
            crashed = None
            with contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                try:
                    if tracer is None:
                        rc = cli.main(item.argv)
                    else:
                        tracer.item = item.key
                        rc = tracer.span("cli.main", cli.main, item.argv)
                except Exception:  # an escaped exception is a failed item and a wrong output
                    crashed = traceback.format_exc()
                elapsed = time.perf_counter() - t0
                body += elapsed
                item_s[item.key].append(elapsed)
            attempted += 1
            if crashed is not None:
                failed += 1
                problems.append(f"{item.key}: uncaught exception\n{crashed}")
                continue
            failed += rc != 0
            problems.extend(f"{item.key}: {p}" for p in item.check(rc, err.getvalue()))
            if tracer is not None and item.out.exists():
                tracer.report_bytes += _dir_bytes(item.out)
        rounds.append(body)
    return {"rounds": rounds, "item_s": item_s, "attempted": attempted, "failed": failed, "problems": problems}


def run_workload(args) -> int:
    import spans
    import workloads

    work = OUT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, work)

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    else:
        setup = setup_seconds(workload.configs)

    res = measure(workload, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall = statistics.median(res["rounds"])
    for p in res["problems"][:20]:
        print(f"perfbench: WRONG {p}", file=sys.stderr)
    print(
        f"workload={args.workload} seed={args.seed} trace={args.trace} rounds={len(res['rounds'])} "
        f"wall_s={wall:.4f} round_s={[round(r, 4) for r in res['rounds']]}"
    )
    for key, times in res["item_s"].items():
        print(f"  {key}: {[round(t, 4) for t in times]}")

    if tracer is not None:
        layer = tracer.metrics(len(res["rounds"]))
        layer.update(spans.import_times(SRC, IMPORT_SAMPLES))
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json")
        per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        metrics = {m["name"]: {"value": layer[m["name"]], "unit": m["unit"]} for m in per_layer}
    else:
        metrics = {
            "setup_s": {"value": setup, "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result = {
        "correct": not res["problems"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh process; one table at the end."""
    import workloads

    rows = []
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return _fail(f"workload {name} exited {proc.returncode}")
        rows.append((name, json.loads(proc.stdout.strip().splitlines()[-1])))
    for name, res in rows:
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:32s} {m['value']:14.6g} {m['unit']}")
    return 0 if all(res["correct"] for _, res in rows) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    import workloads

    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--generate", metavar="DIR", help="write the workload's inputs to DIR and exit")
    args = parser.parse_args(argv)

    if not (SRC / "bosegas" / "cli.py").is_file():
        return _fail(f"no bosegas sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import bosegas

    if Path(bosegas.__file__).resolve().parent != SRC / "bosegas":
        return _fail(f"imported bosegas from {bosegas.__file__}, not from {SRC}")
    if args.generate:
        if args.workload == "all":
            return _fail("--generate needs one workload")
        target = Path(args.generate).resolve()
        target.mkdir(parents=True, exist_ok=True)
        wl = workloads.WORKLOADS[args.workload](args.seed, target)
        for item in wl.items:
            print("bosegas " + " ".join(item.argv))
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
