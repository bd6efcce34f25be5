"""Benchmark for affinewalks: four workloads taken from the acceptance
criteria, end-to-end metrics from untraced runs, per-layer metrics from a
separate traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports ``affinewalks`` from
``src/`` there.  Every pass runs in a fresh interpreter (see ``worker.py``)
with BLAS pinned to one thread.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the lines before it print the run header and every metric with its unit.
Details go to ``perfbench/out/``.

``--trace 0`` sets up ``SETUP_PROBES`` times, then runs passes until the
next one would end after ``--seconds``, and reports medians.  ``--trace 1``
runs one untraced pass and two traced passes at the same seed, checks that
the traced counts repeat exactly and that every function mapped to the
workload was called, and reports the per-layer metrics and the tracing
overhead; it ignores ``--seconds``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib.metadata import version
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 5
DEADLINE_S = 170.0          # every run ends within 180 s
REF_LOOP_ITERS = 700_000    # 0.055-0.2 s on a shared 2-CPU Xeon host
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class BenchError(RuntimeError):
    pass


def reference_loop() -> float:
    """A fixed amount of pure-Python work; its time tracks host speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_LOOP_ITERS):
        acc = (acc + i * i) & 0xFFFF
    return time.perf_counter() - t0


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()
        self.env = dict(os.environ, **PINNED)
        self.host_ref: list[float] = []

    def worker(self, mode: str, spans: Path | None = None) -> dict:
        remaining = DEADLINE_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise BenchError("run deadline reached")
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload",
               self.workload, "--seed", str(self.seed), "--mode", mode]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            out, err = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{mode} worker passed the run deadline") from None
        if proc.returncode != 0:
            raise BenchError(f"{mode} worker exited {proc.returncode}:\n{err[-2000:]}")
        res = json.loads(out.strip().splitlines()[-1])
        res["setup_s"] = res["t_ready"] - t_spawn
        return res

    def timed(self, seconds: float) -> tuple[dict, list[dict]]:
        self.host_ref.append(reference_loop())
        setups = [self.worker("setup")["setup_s"] for _ in range(SETUP_PROBES)]
        passes = []
        t0 = time.monotonic()
        while True:
            passes.append(self.worker("pass"))
            self.host_ref.append(reference_loop())
            elapsed = time.monotonic() - t0
            if elapsed * (len(passes) + 1) / len(passes) > seconds:
                break
        setups += [p["setup_s"] for p in passes]
        metrics = {
            "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        }
        return metrics, passes

    def traced(self) -> tuple[dict, list[dict], dict]:
        OUT.mkdir(exist_ok=True)
        self.host_ref.append(reference_loop())
        plain = self.worker("pass")
        self.host_ref.append(reference_loop())
        runs = []
        for k in range(2):
            spans = OUT / f"spans-{self.workload}-seed{self.seed}-{k}.json"
            runs.append(self.worker("traced", spans))
            self.host_ref.append(reference_loop())
        counts = [tracer.repeatable_counts(r["summary"]) for r in runs]
        if counts[0] != counts[1]:
            diff = sorted(k for k in set(counts[0]) | set(counts[1])
                          if counts[0].get(k) != counts[1].get(k))
            raise BenchError(f"traced counts differ between two runs at seed "
                             f"{self.seed}: {diff}")
        summary = runs[0]["summary"]
        missing = [f for f in tracer.REQUIRED_CALLS[self.workload]
                   if summary.get(f, {}).get("calls", 0) == 0]
        if missing:
            raise BenchError(f"no calls on {self.workload} into: {missing}")
        layers = [tracer.per_layer_metrics(r["summary"]) for r in runs]
        metrics = {}
        for name, (value, unit) in layers[0].items():
            if unit == "s":          # times: mean of the two traced runs
                value = (value + layers[1][name][0]) / 2
            metrics[name] = (value, unit)
        traced_wall = statistics.mean(r["wall_s"] for r in runs)
        overhead = {"untraced_wall_s": plain["wall_s"],
                    "traced_wall_s": traced_wall,
                    "overhead_s": traced_wall - plain["wall_s"]}
        return metrics, [plain] + runs, overhead


def header(workload: str, seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True)
            commit = proc.stdout.strip() or None
        except OSError:         # no git on this host
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"workload": workload, "seed": seed, "commit": commit,
            "src_sha256": digest.hexdigest()[:16],
            "python": platform.python_version(), "numpy": version("numpy"),
            "mpmath": version("mpmath"), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "cpu": cpu,
            "blas_threads": PINNED["OPENBLAS_NUM_THREADS"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(tracer.REQUIRED_CALLS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "affinewalks" / "__init__.py").is_file():
        print(f"error: no affinewalks sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    head = header(args.workload, args.seed)
    runner = Runner(args.workload, args.seed)
    try:
        if args.trace:
            metrics, passes, overhead = runner.traced()
        else:
            metrics, passes = runner.timed(args.seconds)
            overhead = None
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    listed = {m["name"]: m["unit"] for m in spec[kind]}
    if listed != {name: unit for name, (_, unit) in metrics.items()}:
        print("error: reported metrics differ from BENCHMARK.json", file=sys.stderr)
        return 1

    checks = [c for p in passes for c in p["checks"]]
    failed = [c for c in checks if not c["ok"]]
    ref = runner.host_ref
    host = {"ref_s": statistics.median(ref), "min": min(ref), "max": max(ref),
            "samples": ref}

    for key, value in head.items():
        print(f"# {key}: {value}")
    print(f"# host.ref_s: median {host['ref_s']:.4f} s, range "
          f"{host['min']:.4f}-{host['max']:.4f} s over {len(ref)} loops "
          "(diagnostic only)")
    print(f"# passes: {len(passes)}, wall_s each: "
          + ", ".join(f"{p['wall_s']:.3f}" for p in passes))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(f"error_rate {len(failed) / len(checks)} ratio "
          f"({len(failed)} of {len(checks)} checks failed)")
    if overhead is not None:
        print(f"# tracing overhead: {overhead['overhead_s']:.3f} s "
              f"(traced {overhead['traced_wall_s']:.3f} s - untraced "
              f"{overhead['untraced_wall_s']:.3f} s)")
    for c in failed:
        print(f"FAILED {c['name']}: {c['detail']}")

    OUT.mkdir(exist_ok=True)
    record = {"header": head, "trace": args.trace, "seconds": args.seconds,
              "host": host, "overhead": overhead,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "passes": [{k: v for k, v in p.items() if k != "summary"} for p in passes]}
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump(record, fh, indent=1)

    print(json.dumps({"correct": not failed, "attempted": len(checks),
                      "failed": len(failed),
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
