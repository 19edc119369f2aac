"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/seeds.py --workload exact_search --seeds 0-9
    python3 perfbench/seeds.py --workload all --seeds 0-9 --trace 1 --out summary.json

Each run is a child process (one at a time).  For every metric the summary
gives the median, the quartiles from statistics.quantiles(values, n=4) and the
spread (q3 - q1) / median, which BENCHMARK.json's bounds are meant to exceed
threefold.  It also keeps each run's input-manifest hash, so two summaries can
be shown to cover identical inputs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["inputs_sha256"] = next(
        line.split("inputs sha256=")[1].split()[0] for line in lines if "inputs sha256=" in line)
    return result


def summarize(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else None, "values": values}
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*names, "all"])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the summary JSON here")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"seeds": parse_seeds(args.seeds), "seconds": args.seconds,
               "trace": args.trace, "workloads": {}}
    for workload in names if args.workload == "all" else [args.workload]:
        runs = []
        for seed in summary["seeds"]:
            runs.append(one_run(workload, seed, args.seconds, args.trace))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in runs[-1]["metrics"].items()), flush=True)
        metrics = summarize(runs)
        summary["workloads"][workload] = {
            "metrics": metrics,
            "inputs_sha256": {s: r["inputs_sha256"] for s, r in zip(summary["seeds"], runs)},
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
        }
        for name, m in metrics.items():
            bound = bounds.get(name)
            flag = ""
            if bound is not None and m["spread"] is not None and name != "setup_s":
                flag = "  OK" if m["spread"] <= bound / 3 else f"  ABOVE {bound / 3:.4f}"
            spread = "n/a" if m["spread"] is None else f"{m['spread']:.4f}"
            print(f"  {name:32s} median {m['median']:<12.6g} spread {spread}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
