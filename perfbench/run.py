"""Benchmark of the coevomarket experiments, run end to end through the
CLI entry point ``coevomarket.cli.main`` in this process.

    python3 perfbench/run.py --workload quiver --seed 933 --seconds 25 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``.  A run has up to three parts:

1. Timed passes with no wrappers, repeated until ``--seconds`` have
   passed; ``run_s``, ``cpu_s`` are medians over the passes and
   ``peak_rss_mb`` the peak over all of them.
2. ``--trace 0`` only: several fresh interpreters each import the
   package and validate the workload config; ``setup_s`` is their median.
3. ``--trace 1`` only: one traced pass with the per-layer wrappers of
   ``tracing.py``, which gives the per-layer metrics and is checked to
   write byte-identical outputs.

Every pass is one operation.  A pass fails when the CLI errors, when
its outputs differ from the first pass's, or when the output checks of
``checks.py`` (run after all timing) reject them.  The last line of
stdout is one JSON object: correct, attempted, failed and metrics.
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
ORACLES = ROOT / "tests" / "oracles.py"
RUNS = ROOT / ".perfbench_runs"
WORKLOADS = ("quiver", "stgp", "coevolve")
DEFAULT_SEEDS = {"quiver": 933, "stgp": 101, "coevolve": 2001}
SETUP_STARTS = 7


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="master seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="repeat timed passes for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed

    missing = [p for p in (SRC / "coevomarket" / "__init__.py", ORACLES)
               if not p.is_file()]
    if missing:
        print(f"error: not a coevomarket checkout, missing "
              f"{[str(p.relative_to(ROOT)) for p in missing]}",
              file=sys.stderr)
        return 2
    config = BENCH / "workloads" / f"{args.workload}.json"
    doc = json.loads(config.read_text(encoding="utf8"))

    sys.path.insert(0, str(SRC))
    from coevomarket import cli

    out = RUNS / args.workload
    shutil.rmtree(out, ignore_errors=True)
    bench = Bench(cli, args.workload, config, seed, out)
    walls, cpus, digests = bench.timed_passes(args.seconds)
    peak_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    # after the peak is read, so the probes are not counted as children
    setup_s = None if args.trace else measure_setup(config, args.workload)

    # the first pass that ran is the reference: later passes must write
    # the same bytes, and its outputs are checked
    reference = next((d for d in digests if d is not None), None)
    wrong = []
    if reference is not None:
        wrong += check_outputs(args.workload, out / "first", doc, seed)
    failed = sum(1 for d in digests if d is None or d != reference or wrong)
    wrong += [f"timed pass {n + 1} wrote other bytes than the first"
              for n, d in enumerate(digests)
              if d is not None and d != reference]
    attempted = len(digests)

    if args.trace:
        ok, traced_wrong, metrics = bench.traced_pass(
            statistics.median(walls), reference)
        wrong += traced_wrong
        attempted += 1
        failed += not ok or bool(traced_wrong)
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "run_s": (statistics.median(walls), "s"),
            "cpu_s": (statistics.median(cpus), "s"),
            "peak_rss_mb": (peak_kib * 1024 / 1e6, "MB"),
        }
    for message in wrong:
        print(f"check failed: {message}", file=sys.stderr)
    print(f"{args.workload} seed={seed}: {attempted} passes, "
          f"run_s per pass {[round(w, 3) for w in walls]}", file=sys.stderr)
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def measure_setup(config: Path, workload: str) -> float:
    """Median time from starting a fresh interpreter to a validated
    config, over SETUP_STARTS cold starts."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_STARTS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), str(config),
             workload], capture_output=True, text=True, env=env, cwd=ROOT,
            timeout=120, check=False)
        if proc.returncode:
            sys.exit(f"set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]) - t0)
    return statistics.median(times)


def cpu_seconds() -> float:
    """CPU time of this process plus its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode("utf8") + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


class Bench:
    def __init__(self, cli, workload, config, seed, out):
        self.cli = cli
        self.workload = workload
        self.config = config
        self.seed = seed
        self.out = out

    def call(self, out_dir: Path):
        """One CLI run into a fresh directory: (ok, wall s, cpu s)."""
        shutil.rmtree(out_dir, ignore_errors=True)
        argv = [self.workload, "--config", str(self.config),
                "--seed", str(self.seed), "--out", str(out_dir)]
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            rc = self.cli.main(argv)
        except Exception as exc:  # a crash is one failed operation
            print(f"pass crashed: {exc!r}", file=sys.stderr)
            rc = None
        wall = time.perf_counter() - t0
        return rc == 0, wall, cpu_seconds() - cpu0

    def timed_passes(self, seconds: float):
        """Unwrapped passes until ``seconds`` have passed.  The outputs
        of the first pass that runs are kept for checking; later passes
        overwrite one directory and are compared by digest."""
        walls, cpus, digests = [], [], []
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < seconds:
            ran = any(d is not None for d in digests)
            out_dir = self.out / ("pass" if ran else "first")
            ok, wall, cpu = self.call(out_dir)
            walls.append(wall)
            cpus.append(cpu)
            digests.append(digest(out_dir) if ok else None)
        return walls, cpus, digests

    def traced_pass(self, timed_run_s: float, reference):
        """One pass under the per-layer wrappers, then its checks:
        (ran, check failures, per-layer metrics)."""
        import checks
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            ok, wall, _ = self.call(self.out / "traced")
        finally:
            tracer.remove()
        tracer.replay_allocations()
        wrong = []
        if ok and digest(self.out / "traced") != reference:
            wrong.append("traced outputs differ from the timed pass's")
        wrong += checks.check_sessions(tracer)

        metrics = tracer.metrics()
        metrics["cli.output_bytes"] = (
            sum(p.stat().st_size for p in (self.out / "traced").iterdir())
            if ok else 0, "bytes")
        metrics["trace.run_s"] = (wall, "s")
        metrics["trace.overhead_s"] = (wall - timed_run_s, "s")
        (self.out / "trace.json").write_text(json.dumps(
            {"workload": self.workload, "seed": self.seed,
             "metrics": {k: v for k, (v, _) in metrics.items()},
             **tracer.dump()}, indent=1), encoding="utf8")
        return ok, wrong, metrics


def check_outputs(workload: str, out: Path, doc: dict, seed: int) -> list:
    # imported only after timing, so scipy is not in peak_rss_mb
    import checks

    try:
        if workload == "quiver":
            return checks.check_quiver(out, doc)
        if workload == "stgp":
            return checks.check_stgp(out, doc)
        return checks.check_coevolve(out, doc, ORACLES, seed)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable {workload} output: {exc!r}"]


if __name__ == "__main__":
    sys.exit(main())
