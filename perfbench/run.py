#!/usr/bin/env python3
"""Benchmark of the double-descent sweep: end-to-end metrics or a traced run.

    python3 perfbench/run.py --workload dd-serial --seed 7 --seconds 20 --trace 0

With --trace 0 it times whole sweeps (run_sweep plus emit_outputs) for about
--seconds, and fresh interpreters from launch to a parsed config.  With
--trace 1 it runs a warm-up sweep, one sweep untraced and one traced, and
reports per-layer time from the spans.  Every run checks the sweep's output.
The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; perfbench/README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_PROBES = 11
# replicate-0 cells recomputed after the sweep: small, at the peak, and large
REPLAY_S = (10, 100, 1000)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="time to spend in timed sweeps with --trace 0; at least one sweep runs")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink the workload to a sub-second grid (for the self-tests)")
    return ap.parse_args(argv)


def git_commit() -> str:
    git = workloads.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_id = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_id = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_id,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_env": {v: os.environ.get(v) for v in workloads.THREAD_VARS},
        "start_method": multiprocessing.get_start_method(),
        "git_commit": git_commit(),
    }


def setup_seconds(args) -> float:
    """One fresh interpreter from launch to a parsed config (see probe.py)."""
    cmd = [sys.executable, str(HERE / "probe.py"), args.workload, str(args.seed),
           "1" if args.tiny else "0"]
    launched = time.monotonic()
    done = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout.split()[-1]) - launched


def peak_rss_mb() -> float:
    """Peak resident set of this process or of its largest waited-for child."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, child_kb) / 1024.0


class Run:
    """The sweeps of one benchmark run and the cells that failed a check."""

    def __init__(self, args, wl, tmp: Path):
        from noisyrf import sweep

        self.args, self.wl, self.tmp = args, wl, tmp
        self.sweep = sweep
        self.cfg = workloads.make_config(args.workload, args.seed, str(tmp), tiny=args.tiny)
        self.walls = []
        self.csvs = []
        self.attempted = 0
        self.failed = set()  # (sweep number, s, replicate)
        self.problems = []

    def fail(self, sweep_no: int, key, why: str) -> None:
        self.failed.add((sweep_no,) + tuple(key))
        self.problems.append(f"sweep {sweep_no}, cell s={key[0]} replicate={key[1]}: {why}")

    def timed_sweep(self):
        """One sweep plus its artifacts; checks it and returns its SweepResult."""
        no = len(self.walls)
        start = time.perf_counter()
        result = self.sweep.run_sweep(self.cfg)
        paths = self.sweep.emit_outputs(result, self.cfg, str(self.tmp / f"sweep{no}"))
        self.walls.append(time.perf_counter() - start)
        with open(paths["sweep"], "r", encoding="utf-8", newline="") as fh:
            self.csvs.append(fh.read())
        self._check(no, result.records)
        return result

    def _check(self, no: int, records) -> None:
        self.attempted += len(records)
        for rec in records:
            why = checks.cell_problem(rec, self.wl.misspec_positive)
            if why:
                self.fail(no, (rec.s, rec.replicate), why)
        if self.wl.curve_shape:
            why = checks.curve_problem(records, self.cfg.n)
            for rec in records if why else ():
                self.fail(no, (rec.s, rec.replicate), f"curve: {why}")
        # sweep.csv is byte-identical across runs of one workload at one seed
        first, rows = checks.csv_rows(self.csvs[0]), checks.csv_rows(self.csvs[no])
        for key, line in rows.items():
            if line != first.get(key):
                self.fail(no, key, "sweep.csv row differs from sweep 0")

    def replay_checks(self) -> None:
        """Recompute replicate-0 cells and compare them with sweep 0's rows."""
        grid = self.cfg.s_grid
        indices = [i for i, s in enumerate(grid) if s in REPLAY_S]
        rows = checks.csv_rows(self.csvs[0])
        # same process, same BLAS threads: byte-identical
        records = [self.sweep.compute_row(self.cfg, i, 0) for i in indices]
        for line in self.sweep.records_csv(records).splitlines()[1:]:
            key = checks.row_key(line)
            if line != rows.get(key):
                self.fail(0, key, "recomputed cell is not byte-identical")
        if not self.wl.serial_reference:
            return
        # what dd-serial computes for these cells: default BLAS threads
        cmd = [sys.executable, str(HERE / "replay.py"), self.args.workload,
               str(self.args.seed), "1" if self.args.tiny else "0"] + [str(i) for i in indices]
        env = workloads.pin_threads(dict(os.environ), None)
        done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                              timeout=120, env=env)
        for ref in json.loads(done.stdout.splitlines()[-1]):
            key = checks.row_key(ref)
            if not checks.rows_close(rows.get(key, ""), ref, checks.SERIAL_RTOL):
                self.fail(0, key, f"row differs from the serial default-BLAS row "
                                  f"beyond rtol {checks.SERIAL_RTOL:g}")


def measure(args, wl, tmp: Path):
    """Run the workload; return (metrics {name: (value, unit)}, Run, Tracer or None)."""
    run = Run(args, wl, tmp)
    if args.trace:
        from tracer import Tracer, layer_metrics

        # the first sweep in a process runs cold (allocator, BLAS buffers), so
        # the untraced sweep that the traced one is compared with runs second
        run.timed_sweep()
        run.timed_sweep()
        with Tracer() as tracer:
            result = run.timed_sweep()
        tracer.collect(result.records)
        metrics = layer_metrics(tracer.spans, run.cfg.s_grid, run.cfg.workers)
        metrics["trace.overhead_s"] = (run.walls[2] - run.walls[1], "s")
        run.replay_checks()
        return metrics, run, tracer
    setup = [setup_seconds(args) for _ in range(SETUP_PROBES)]
    start = time.perf_counter()
    while True:
        run.timed_sweep()
        if time.perf_counter() - start + run.walls[-1] > args.seconds:
            break
    rss = peak_rss_mb()
    run.replay_checks()
    metrics = {
        "wall_s": (statistics.median(run.walls), "s"),
        "peak_rss_mb": (rss, "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    return metrics, run, None


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]
    # before numpy is imported: OpenBLAS reads these once, at load time
    workloads.pin_threads(os.environ, wl.blas_threads)
    workloads.add_source_path()
    try:
        import noisyrf
    except ImportError as exc:
        print(f"perfbench: cannot import noisyrf from {workloads.SRC}: {exc}", file=sys.stderr)
        return 2
    if workloads.SRC not in Path(noisyrf.__file__).resolve().parents:
        print(f"perfbench: noisyrf came from {noisyrf.__file__}, not from {workloads.SRC}",
              file=sys.stderr)
        return 2
    import scipy.sparse.linalg  # noqa: F401  the first large cell imports it lazily

    env = fingerprint()
    print(json.dumps({"fingerprint": env}))
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        metrics, run, tracer = measure(args, wl, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-tiny' if args.tiny else ''}"
    if tracer is not None:
        tracer.write(OUT / f"{stem}.spans.jsonl")
    for why in run.problems:
        print(f"FAILED {why}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"cells attempted {run.attempted}, failed {len(run.failed)}")
    result = {
        "correct": not run.failed,
        "attempted": run.attempted,
        "failed": len(run.failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "fingerprint": env, "sweep_walls_s": run.walls,
                   "problems": run.problems, "result": result}, fh, indent=2)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
