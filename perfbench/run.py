#!/usr/bin/env python3
"""spinboost benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload fig2_surface --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/``.  Each request calls ``spinboost.cli.main(argv)`` in-process
with stdout captured, one after the other, until --seconds have passed
(whole passes only).  Inputs come from --seed; the program sees only the
generated arguments and files.

--trace 0 prints the end-to-end metrics: setup_s (median fresh-interpreter
import of spinboost.cli plus parser build), ops_per_s (operations per
second of a median pass), op_p50_ms and op_p90_ms (request latency
percentiles, see timing_metrics) and peak_rss_mb.  Timings are scaled to
a reference host speed with the probes in hostspeed.py; the raw ones are
printed on a '#' line.

--trace 1 alternates three untraced and three traced passes and prints
the per-layer metrics per pass (tracing.py and microbench.py).

The last stdout line is the JSON result; lines before it, starting with
'#', describe the run.  Spans and results are written to .perfbench_out/
in the checkout.
"""

from __future__ import annotations

import argparse
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
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("fig2_surface", "fig3_sweep", "property_checks", "state_files")
SETUP_REPEATS = 15
# From this many requests per pass on, the latency percentiles are taken over
# every request of every pass; below it there are too few for a tail.
TAIL_MIN_REQUESTS = 10
TRACE_PASSES = 3
SETUP_CODE = "import spinboost.cli as cli; cli.build_parser()"

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def cap_blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use; call before numpy."""
    cpus = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        current = os.environ.get(var, "")
        cap = cpus
        if current.isdigit() and int(current) > 0:
            cap = min(int(current), cpus)
        os.environ[var] = str(cap)
    return cpus


def git_revision() -> str:
    """HEAD of the checkout, or 'unknown'; git may not look above ROOT."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(blas_cap: int, loadavg: str) -> dict:
    import importlib.util

    import numpy

    kernels = sys.modules.get("spinboost.kernels")
    numba_ok = importlib.util.find_spec("numba") is not None
    not_measured = ["scan --threads > 1 (the benchmark runs one thread)"]
    if not numba_ok:
        not_measured.append("numba kernels (numba is not importable)")
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "numba_importable": numba_ok,
        "kernel_backend": "numba" if getattr(kernels, "HAS_NUMBA", False) else "numpy",
        "blas_threads_cap": blas_cap,
        "git_revision": git_revision(),
        "loadavg_at_start": loadavg,
        "not_measured": not_measured,
    }


def measure_setup(repeats: int) -> tuple[float, float]:
    """Median wall time of a fresh interpreter importing spinboost.cli and
    building its parser: (scaled to the reference host speed, raw).  Each
    start is scaled by the interpreter probes around it; all of them run on
    one CPU, so a probe sees the CPU the start it scales ran on."""
    import hostspeed

    env = dict(os.environ, PYTHONPATH=str(SRC))
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    raw, scaled = [], []
    try:
        before = hostspeed.probe_start(ROOT, env)
        for _ in range(repeats):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-c", SETUP_CODE],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
            )
            raw.append(time.perf_counter() - start)
            if proc.returncode != 0:
                raise RuntimeError(f"set-up import failed:\n{proc.stderr}")
            after = hostspeed.probe_start(ROOT, env)
            scaled.append(hostspeed.scale(raw[-1], before, after,
                                          hostspeed.START_REFERENCE_S))
            before = after
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.median(scaled), statistics.median(raw)


def call_cli(cli, argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(list(argv))
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crashing request is a failed operation, not a crash
        rc = -1
        err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue()


class Loop:
    """Runs passes over a workload's requests and keeps the checks' tally."""

    def __init__(self, cli, requests):
        self.cli = cli
        self.requests = requests
        self.first = [None] * len(requests)
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.notes: list[str] = []
        self.latencies: list[float] = []  # raw, ms
        self.scaled: list[float] = []  # at the reference host speed, ms

    def run_pass(self, before_request=None) -> float:
        """One pass, with a host-speed probe around every request; returns
        the request seconds at the reference host speed."""
        import hostspeed

        busy = 0.0
        before = hostspeed.probe()
        for i, req in enumerate(self.requests):
            if before_request is not None:
                before_request(i)
            start = time.perf_counter()
            results = [call_cli(self.cli, argv) for argv in req.argvs]
            elapsed = time.perf_counter() - start
            after = hostspeed.probe()
            scaled = hostspeed.scale(elapsed, before, after)
            busy += scaled
            self.latencies.append(elapsed * 1e3)
            self.scaled.append(scaled * 1e3)
            before = after
            self._check(i, req, results)
        return busy

    def _check(self, i, req, results) -> None:
        outcome = req.evaluate(results, self.first[i])
        if self.first[i] is None:
            self.first[i] = outcome.fingerprint
        self.attempted += req.ops
        self.failed += outcome.failed
        self.correct = self.correct and not outcome.gross
        if outcome.note and outcome.note not in self.notes and len(self.notes) < 10:
            self.notes.append(outcome.note)


def per_layer_units() -> dict[str, str]:
    import microbench
    import tracing

    units = tracing.per_layer_metric_units()
    units.update({f"{name}.us_per_call": "us" for name in microbench.ROW_NAMES})
    return units


def quantile(values, q: float) -> float:
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def timing_metrics(loop: Loop, latencies: list[float]) -> dict:
    """ops_per_s divides a pass's operations by the sum of each request's
    median latency over the passes.  With TAIL_MIN_REQUESTS or more
    requests per pass the latency percentiles are over every request of
    every pass, so calls that are slow only now and then move p90.  With
    fewer they are over the per-request medians and describe the mix."""
    n = len(loop.requests)
    per_request = [statistics.median(latencies[i::n]) for i in range(n)]
    ops = sum(req.ops for req in loop.requests)
    sample = latencies if n >= TAIL_MIN_REQUESTS else per_request
    return {
        "ops_per_s": ops / (sum(per_request) / 1e3),
        "op_p50_ms": quantile(sample, 0.5),
        "op_p90_ms": quantile(sample, 0.9),
    }


def run_untraced(loop: Loop, seconds: float, setup: tuple[float, float]) -> dict:
    """Runs whole passes, stopping at the pass boundary nearest the deadline.
    Timings are reported at the reference host speed (hostspeed.py); the raw
    ones are printed alongside."""
    start = time.perf_counter()
    passes = 0
    while True:
        loop.run_pass()
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / passes / 2 >= seconds:
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    raw = timing_metrics(loop, loop.latencies)
    print(f"# passes {passes}; over all {len(loop.scaled)} requests, "
          f"p50 {quantile(loop.scaled, 0.5):.6g} ms, "
          f"p90 {quantile(loop.scaled, 0.9):.6g} ms")
    print("# raw: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items())
          + f", setup_s {setup[1]:.6g}")
    return {
        "setup_s": setup[0],
        **timing_metrics(loop, loop.scaled),
        "peak_rss_mb": rss_mb,
    }


def run_traced(loop: Loop, seed: int, spans_path: Path) -> dict:
    """Alternates untraced and traced passes; per-layer metrics are per pass,
    and the overhead is the median traced pass minus the median untraced
    pass, both at the reference host speed."""
    import microbench
    import tracing

    tracer = tracing.Tracer()
    untraced, traced = [], []
    for _ in range(TRACE_PASSES):
        untraced.append(loop.run_pass())
        tracer.install()
        try:
            traced.append(loop.run_pass(before_request=tracer.start_request))
        finally:
            tracer.restore()
    untraced_s, traced_s = statistics.median(untraced), statistics.median(traced)
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = traced_s - untraced_s
    metrics["trace.overhead_share"] = (traced_s - untraced_s) / untraced_s
    metrics.update(microbench.us_per_call(seed))
    tracer.write_spans(spans_path)

    calls, total, self_s, _ = tracer.aggregate()
    print(f"# median untraced pass {untraced_s:.3f} s, traced pass {traced_s:.3f} s "
          f"({TRACE_PASSES} each), {len(tracer.spans)} spans -> "
          f"{spans_path.relative_to(ROOT)}")
    if tracer.missing:
        print(f"# not found, reported as 0: {', '.join(tracer.missing)}")
    print(f"# per pass: {'function':35s} {'calls':>8s} {'total_s':>9s} {'self_s':>9s}")
    for i, name in enumerate(tracer.names):
        if calls[i]:
            print(f"# {name:45s} {calls[i]:8d} {total[i]:9.4f} {self_s[i]:9.4f}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    loadavg = Path("/proc/loadavg").read_text().strip()
    blas_cap = cap_blas_threads()
    if not (SRC / "spinboost" / "__init__.py").is_file():
        print(f"error: no spinboost sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import workloads

    size = workloads.SMOKE if args.smoke else workloads.FULL
    setup = None
    if not args.trace:
        setup = measure_setup(1 if args.smoke else SETUP_REPEATS)

    import spinboost.cli as cli

    if SRC not in Path(cli.__file__).resolve().parents:
        print(f"error: imported spinboost from {cli.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    env = environment(blas_cap, loadavg)
    print("# environment " + json.dumps(env, sort_keys=True))

    OUT_DIR.mkdir(exist_ok=True)
    WORK_DIR.mkdir(exist_ok=True)
    workdir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    workdir.mkdir()
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        make = workloads.WORKLOAD_FUNCTIONS[args.workload]
        warmup, requests = make(args.seed, size, workdir)
        for argv in warmup:
            call_cli(cli, argv)
        loop = Loop(cli, requests)
        if args.trace:
            metrics = run_traced(loop, args.seed, OUT_DIR / f"{stem}-spans.csv")
            units = per_layer_units()
        else:
            metrics = run_untraced(loop, args.seconds, setup)
            units = E2E_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    error_rate = loop.failed / loop.attempted
    print(f"# error_rate {error_rate:.6g} ({loop.failed} of {loop.attempted} "
          f"operations failed)")
    for note in loop.notes:
        print(f"# {note}")
    result = {
        "correct": loop.correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    (OUT_DIR / f"{stem}.json").write_text(
        json.dumps({"environment": env, **result}, indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
