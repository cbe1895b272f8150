"""Cold-process benchmark of the higherfano CLI.

Usage (from the root of a checkout):

    python3 perfbench/run.py                       # every workload, end-to-end table
    python3 perfbench/run.py --trace 1             # every workload, per-layer table
    python3 perfbench/run.py --workload census-ci --seed 3 --seconds 30 --trace 0

Each run of a workload is a fresh ``python -m higherfano.cli ARGV`` child
process, started only after the previous one has ended: a closed loop with
one client and ``--jobs`` left at 1.  The seed shuffles the interleaved order
of runs within each round; the CLI only ever receives the fixed argv from
workloads.json.  Every child's output is checked against the digest, row
count and agreement columns recorded for it.

With ``--trace 0`` a round is one workload run and one ``higherfano
--version`` run (set-up time), and a run of the fixed reference kernel
(reference.py) sits between every two rounds.  Each time sample is scaled by
REF_NOMINAL_S over the mean of the two reference runs around its round, so
the end-to-end times are seconds at a fixed machine speed; the raw medians
are in the ``details`` line.  With ``--trace 1`` a round is one untraced and
one traced run (tracer.py) of the same argv; the traced runs give the
per-layer metrics, unscaled.  Rounds repeat while another round still fits
in ``--seconds``.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import layers

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"
CHILD_TIMEOUT_S = 150
# about the reference kernel's median wall time on the 2-core Intel Xeon VM
# (Python 3.11.7) this benchmark was written on; it only sets the time scale
REF_NOMINAL_S = 0.40
REFERENCE_STDOUT = b"55\n"

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "rows_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


@dataclass
class ChildRun:
    """One finished child process: its output and its own resource usage."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int
    stdout: bytes


class Spawner:
    """Runs children through spawn.py, so their peak RSS is their own.

    wait4 on each child's pid gives its own CPU time and peak RSS;
    RUSAGE_CHILDREN would give a running maximum over every child so far.
    """

    def __init__(self):
        OUT_DIR.mkdir(exist_ok=True)
        # children see no PYTHON* settings of the caller: PYTHONDONTWRITEBYTECODE,
        # for one, would make every cold run compile the package again
        env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
        env["PYTHONPATH"] = str(ROOT / "src")
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "spawn.py")], cwd=ROOT, env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, start_new_session=True,
        )

    def run(self, argv: list[str]) -> ChildRun:
        out = OUT_DIR / "stdout.bin"
        request = {"argv": argv, "stdout": str(out), "stderr": str(OUT_DIR / "stderr.txt"),
                   "timeout_s": CHILD_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("spawn.py exited early")
        r = json.loads(reply)
        return ChildRun(r["wall_s"], r["cpu_s"], r["maxrss_kb"] / 1024, r["exit_code"], out.read_bytes())

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        self.proc.stdin.close()  # the helper exits once its stdin closes
        if exc_type is None:
            try:
                self.proc.wait(timeout=CHILD_TIMEOUT_S + 10)
            except subprocess.TimeoutExpired:
                pass
        if self.proc.poll() is None:
            os.killpg(self.proc.pid, signal.SIGKILL)  # the helper and any child it started
            self.proc.wait()
        self.proc.stdout.close()


def failed_rows(spec: dict, exit_code: int, stdout: bytes) -> int:
    """Rows of a run that count as failed: all of them unless exit and digest match."""
    rows = spec["rows"]
    if exit_code != 0 or hashlib.sha256(stdout).hexdigest() != spec["sha256"]:
        return rows
    text = stdout.decode("utf-8")
    if spec["format"] == "csv":
        items = list(csv.DictReader(io.StringIO(text)))
        good = sum(1 for item in items if item["agree"] == "True")
    else:
        items = json.loads(text)["items"]
        good = sum(1 for item in items if item["ok"] is True)
    return rows - min(good, rows)


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            sha, _, ref_name = line.partition(" ")
            if ref_name == name:
                return sha
    return None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


class Bench:
    def __init__(self, spawner: Spawner, config: dict, seconds: int, seed: int):
        self.spawner = spawner
        self.config = config
        self.seconds = seconds
        self.seed = seed
        self.cli = [sys.executable, "-m", "higherfano.cli"]
        self.aux_ok = True  # every set-up and reference run gave its expected output

    def setup_run(self) -> ChildRun:
        run = self.spawner.run(self.cli + self.config["setup"]["argv"])
        ok = run.exit_code == 0 and hashlib.sha256(run.stdout).hexdigest() == self.config["setup"]["sha256"]
        self.aux_ok = self.aux_ok and ok
        return run

    def reference_run(self) -> float:
        run = self.spawner.run([sys.executable, str(BENCH_DIR / "reference.py")])
        self.aux_ok = self.aux_ok and run.exit_code == 0 and run.stdout == REFERENCE_STDOUT
        return run.wall_s

    def rounds(self, kinds: list[str]):
        """Yield shuffled rounds of run kinds while another average round fits in the time budget."""
        rng = random.Random(self.seed)
        t0 = time.perf_counter()
        done = 0
        while True:
            order = list(kinds)
            rng.shuffle(order)
            yield order
            done += 1
            elapsed = time.perf_counter() - t0
            if elapsed + elapsed / done > self.seconds:
                return

    def end_to_end(self, name: str) -> dict:
        spec = self.config["workloads"][name]
        argv = self.cli + spec["argv"]
        self.setup_run()  # untimed: compiles bytecode and warms the file cache
        samples = {metric: [] for metric in END_TO_END_UNITS}
        raw = {metric: [] for metric in ("wall_s", "cpu_s", "setup_s", "ref_s")}
        attempted = failed = 0
        ref_before = self.reference_run()
        raw["ref_s"].append(ref_before)
        for order in self.rounds(["workload", "setup"]):
            runs = {kind: self.setup_run() if kind == "setup" else self.spawner.run(argv) for kind in order}
            ref_after = self.reference_run()
            raw["ref_s"].append(ref_after)
            # times in seconds at the nominal reference speed: the machine's
            # speed drifts by up to 2x within minutes, and the reference runs
            # that bracket a round follow that drift closely
            scale = REF_NOMINAL_S / ((ref_before + ref_after) / 2)
            ref_before = ref_after
            run, setup = runs["workload"], runs["setup"]
            attempted += spec["rows"]
            failed += failed_rows(spec, run.exit_code, run.stdout)
            samples["wall_s"].append(run.wall_s * scale)
            samples["cpu_s"].append(run.cpu_s * scale)
            samples["rows_per_s"].append(spec["rows"] / (run.wall_s * scale))
            samples["peak_rss_mb"].append(run.peak_rss_mb)
            samples["setup_s"].append(setup.wall_s * scale)
            raw["wall_s"].append(run.wall_s)
            raw["cpu_s"].append(run.cpu_s)
            raw["setup_s"].append(setup.wall_s)
        stats = {metric: quartiles(values) for metric, values in samples.items()}
        metrics = {m: {"value": s["median"], "unit": END_TO_END_UNITS[m]} for m, s in stats.items()}
        details = {"stats": stats, "raw": {m: quartiles(v) for m, v in raw.items()}, "ref_nominal_s": REF_NOMINAL_S}
        return self.result(name, attempted, failed, metrics, details)

    def per_layer(self, name: str) -> dict:
        spec = self.config["workloads"][name]
        argv = self.cli + spec["argv"]
        trace_dir = OUT_DIR / name
        traced_argv = [sys.executable, str(BENCH_DIR / "tracer.py"), str(trace_dir)] + spec["argv"]
        self.setup_run()
        walls = {"plain": [], "traced": []}
        samples: dict[str, list[float]] = {}
        notes: dict = {}
        attempted = failed = 0
        for order in self.rounds(["plain", "traced"]):
            for kind in order:
                run = self.spawner.run(traced_argv if kind == "traced" else argv)
                attempted += spec["rows"]
                failed += failed_rows(spec, run.exit_code, run.stdout)
                walls[kind].append(run.wall_s)
                if kind == "traced" and run.exit_code == 0:
                    values, notes = layers.layer_metrics(layers.load_trace(trace_dir), spec.get("chern_k", 0))
                    for metric, value in values.items():
                        samples.setdefault(metric, []).append(value)
        plain, traced = statistics.median(walls["plain"]), statistics.median(walls["traced"])
        samples["trace.overhead_frac"] = [(traced - plain) / plain]
        metrics = {}
        for metric, unit, _ in layers.METRICS:
            values = samples.get(metric)
            metrics[metric] = {"value": statistics.median(values) if values else 0.0, "unit": unit}
        notes["walls"] = {kind: quartiles(values) for kind, values in walls.items()}
        return self.result(name, attempted, failed, metrics, notes)

    def result(self, name: str, attempted: int, failed: int, metrics: dict, details: dict) -> dict:
        details = {"workload": name, "argv": self.config["workloads"][name]["argv"], "seed": self.seed,
                   "seconds": self.seconds, "environment": environment(), **details}
        return {
            "correct": failed == 0 and self.aux_ok,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
            "details": details,
        }


def print_table(name: str, result: dict, details: dict) -> None:
    print(f"== {name}  (attempted {result['attempted']} rows, failed {result['failed']})")
    for metric, entry in result["metrics"].items():
        line = f"  {metric:38s} {entry['value']:14.6g} {entry['unit']:6s}"
        if metric in details.get("stats", {}):
            s = details["stats"][metric]
            line += f"  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n {s['n']}"
        if metric in details.get("raw", {}):
            line += f"  (unscaled median {details['raw'][metric]['median']:.6g})"
        print(line)
    frac = result["failed"] / result["attempted"]
    print(f"  {'fail_frac':38s} {frac:14.6g} {'ratio':6s}  ({result['failed']}/{result['attempted']})")


def main(argv: list[str] | None = None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8")) \
        if (ROOT / "BENCHMARK.json").is_file() else {}
    config = json.loads((BENCH_DIR / "workloads.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*config["workloads"], "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=benchmark.get("run_seconds", 30))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)
    if not (ROOT / "src" / "higherfano" / "cli.py").is_file():
        print(f"error: no higherfano sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if ns.seconds < 1:
        parser.error("--seconds must be at least 1")

    names = list(config["workloads"]) if ns.workload == "all" else [ns.workload]
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))  # lets Spawner clean up
    with Spawner() as spawner:
        bench = Bench(spawner, config, ns.seconds, ns.seed)
        measure = bench.per_layer if ns.trace else bench.end_to_end
        results = {name: measure(name) for name in names}
    for name, result in results.items():
        details = result.pop("details")
        if ns.workload == "all":
            print_table(name, result, details)
        print("details " + json.dumps(details, sort_keys=True))
    if ns.workload == "all":
        combined = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{m}": v for name, r in results.items() for m, v in r["metrics"].items()},
        }
    else:
        combined = results[ns.workload]
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
