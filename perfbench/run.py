"""Seeded benchmark for bookembed: k-tree embedding, exact search, oracle checks.

Run from the repository root, with the standard library only:

    python3 perfbench/run.py --workload ktree_embed --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 35 --trace 1

One workload runs in this process as a closed loop: one caller, no threads,
back-to-back passes over the workload's inputs until --seconds is used up.
`--workload all` runs each workload in a child process of its own, one after
another, so that peak memory belongs to one workload.  Every output is checked;
the run exits 1 if any check failed and 2 if the package cannot be imported
from ./src.  The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.  Times
are in seconds at reference host speed (spans.HostSpeed).  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_REPS = 5  # at least this many set-ups, and at least SETUP_MIN_S of them
SETUP_MIN_S = 2.0
HOST_SAMPLE_S = 0.25  # host speed is sampled at most this often during passes

sys.path.insert(0, str(Path(__file__).resolve().parent))
from spans import HostSpeed, PassLog, Tracer, pass_seconds, quartiles  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def import_package():
    """Import bookembed afresh from this checkout's src/ and return its modules."""
    for name in [m for m in sys.modules if m == "bookembed" or m.startswith("bookembed.")]:
        del sys.modules[name]
    pkg = importlib.import_module("bookembed")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"bookembed imported from {pkg.__file__}, not from {SRC}")
    return types.SimpleNamespace(
        pkg=pkg,
        bruteforce=importlib.import_module("bookembed.bruteforce"),
        cli=importlib.import_module("bookembed.cli"),
        out_dir=OUT,
    )


def set_up(workload: str, seed: int):
    """Import and build the inputs repeatedly, sampling the host's speed
    after each set-up.  Returns the last set-up and setup_s, the median
    set-up time at reference speed."""
    setup = WORKLOADS[workload][0]
    host = HostSpeed(0.0)
    times: list[float] = []
    while len(times) < SETUP_REPS or sum(times) < SETUP_MIN_S:
        gc.collect()
        start = time.perf_counter()
        bk = import_package()
        inputs, manifest = setup(bk, seed)
        times.append(time.perf_counter() - start)
        host.sample()
    return bk, inputs, manifest, statistics.median(times) * host.scale()


class Run:
    """The passes of one run: untraced, and traced with their layer self
    times, plus the host-speed samples taken between instances."""

    def __init__(self, workload: str, bk, inputs, trace: bool) -> None:
        self.workload = workload
        self.bk = bk
        self.inputs = inputs
        self.trace = trace
        self.tracer = Tracer()
        self.host = HostSpeed(HOST_SAMPLE_S)
        self.plain: list[PassLog] = []
        self.traced: list[tuple[PassLog, dict[str, float]]] = []

    def measure(self, seconds: float) -> None:
        """Closed loop of passes.  With tracing, passes alternate traced and
        untraced so that the overhead is measured in the same run."""
        run_pass = WORKLOADS[self.workload][1]
        tracer = self.tracer
        deadline = time.perf_counter() + seconds
        walls: list[float] = []
        while True:
            tracer.enabled = self.trace and len(self.traced) <= len(self.plain)
            gc.collect()
            log = PassLog(tracer, self.host)
            first = len(tracer.spans)
            start = time.perf_counter()
            with tracer.span("pass"):
                # the k-th traced and k-th untraced pass see the same inputs
                index = len(self.traced) if tracer.enabled else len(self.plain)
                run_pass(self.bk, self.inputs, log, index)
            walls.append(time.perf_counter() - start)
            log.scale = self.host.scale(log.first_sample)
            if tracer.enabled:
                self.traced.append((log, tracer.self_times(first)))
            else:
                self.plain.append(log)
            enough = self.plain and (self.traced or not self.trace)
            if enough and time.perf_counter() + statistics.median(walls) > deadline:
                return

    @property
    def logs(self) -> list[PassLog]:
        return self.plain + [log for log, _ in self.traced]

    def pass_s(self) -> float:
        return pass_seconds(self.plain)

    def end_to_end(self, setup_s: float) -> dict[str, float]:
        last = self.plain[-1]
        return {
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "pass_s": self.pass_s(),
            "pages_total": last.pages,
            "decided_frac": last.decided / last.answers,
        }

    def per_layer(self, layers: list[str]) -> dict[str, float]:
        """Median over traced passes of each layer's self time per pass, plus
        the solver's node counts and the tracing overhead."""
        out = {
            "trace.overhead_s": pass_seconds([log for log, _ in self.traced]) - self.pass_s(),
            "solver.nodes": statistics.median(log.counts["solver.nodes"] for log, _ in self.traced),
        }
        rates = [log.counts["solver.nodes"] / (t["solver.exact_s"] * log.scale)
                 for log, t in self.traced if t.get("solver.exact_s")]
        out["solver.nodes_per_s"] = statistics.median(rates) if rates else 0.0
        for name in layers:
            if name not in out:
                own = "instance" if name == "bench.checks_s" else name
                out[name] = statistics.median(
                    t.get(own, 0.0) * log.scale for log, t in self.traced)
        return out

    def own_names(self, failed: int, attempted: int):
        """The metrics under the workload-specific names perfbench/README.md uses."""
        last, pass_s = self.plain[-1], self.pass_s()
        out = [("failed_frac", failed / attempted, "ratio")]
        if self.workload == "ktree_embed":
            out += [("ktree_vertices_per_s", last.units / pass_s, "1/s"),
                    ("pages_total", last.pages, "count")]
        elif self.workload == "exact_search":
            out += [("exact_verdict_s", pass_s, "s"),
                    ("exact_undecided_frac", 1 - last.decided / last.answers, "ratio")]
        else:
            out += [("oracle_graphs_per_s", last.units / pass_s, "1/s")]
        return out

    def report(self, seed: int, manifest: dict, shown: dict, failed: int, attempted: int):
        """Human-readable lines; the JSON result line follows them."""
        walls = [sum(log.instance_s.values()) for log in self.plain]
        q1, q2, q3 = quartiles(walls)
        print(f"# {self.workload} seed={seed} inputs sha256={manifest['sha256'][:16]} "
              f"passes={len(self.plain)} untraced, {len(self.traced)} traced")
        print(f"# untraced pass wall time: median {q2:.4f} s, quartiles {q1:.4f}..{q3:.4f} s, "
              f"{len(walls)} passes; host speed scale {self.host.scale():.4f} "
              f"(median of {len(self.host.samples)} samples, applied pass by pass)")
        for name, value, unit in self.own_names(failed, attempted):
            print(f"# {name} = {value} {unit}")
        for name, m in shown.items():
            print(f"# {name} = {m['value']} {m['unit']}")


def run_one(args, spec: dict) -> int:
    if not (SRC / "bookembed" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'bookembed'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        bk, inputs, manifest, setup_s = set_up(args.workload, args.seed)
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    (OUT / f"manifest-{stem}.json").write_text(json.dumps(manifest, indent=1) + "\n")

    run = Run(args.workload, bk, inputs, args.trace)
    run.measure(args.seconds)
    if args.trace:
        declared = spec["per_layer"]
        values = run.per_layer([m["name"] for m in declared])
        (OUT / f"trace-{stem}.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "instance"],
             "spans": run.tracer.spans}))
    else:
        declared = spec["end_to_end"]
        values = run.end_to_end(setup_s)
    shown = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    attempted = sum(log.attempted for log in run.logs)
    failed = sum(log.failed for log in run.logs)
    run.report(args.seed, manifest, shown, failed, attempted)
    for log in run.logs:
        for err in log.errors[:5]:
            print(f"FAILED: {err}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": shown}))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(int(args.trace))]
        sys.stdout.flush()
        worst = max(worst, subprocess.run(cmd, cwd=ROOT, timeout=600).returncode)
    return worst


def main() -> int:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    args.trace = bool(args.trace)
    return run_all(args) if args.workload == "all" else run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
