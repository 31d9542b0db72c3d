"""oddtrans benchmark: one workload per process, closed loop, one client.

    python3 bench/run.py --workload exact-sparse --seed 1 --seconds 36 --trace 0

The client calls ``oddtrans.cli.main(argv)`` in-process with stdout
captured, one op after the other with no think time, over whole passes of
the workload's op list until the timed ops add up to about ``--seconds``
(and to at least 100 ops).  Each output is checked right after its op,
outside the timed region.

On a shared machine single-thread speed moves by up to 1.8x, within a
run and from run to run, and a slow spell can outlast a run.  So right
before every op and every set-up probe the client times a fixed
pure-Python loop, and the end-to-end times are rescaled by it to a
machine on which that loop takes ``CALIBRATION_REF_MS``.  Throughput is
taken from the median pass.  The times as measured are kept in the
``info`` line.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes over the same budget, with no set-up probes,
and reports the per-layer metrics of the traced passes (see tracer.py)
plus the ratio of traced to untraced pass time.  The last line of stdout
is the result object; the lines before it say what ran, on which inputs
and which machine.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 5
CALIBRATION_LOOP = 50_000
CALIBRATION_REF_MS = 4.0
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
TAIL_MIN_BEYOND = 10
MIN_SAMPLES = 100
MAX_REPORTED_FAILURES = 5


def _require_sources() -> None:
    if not (SRC / "oddtrans" / "cli.py").is_file():
        raise SystemExit(f"error: no oddtrans sources under {SRC}")


def _import_program():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    _require_sources()
    sys.path.insert(0, str(SRC))
    import oddtrans.cli

    if Path(oddtrans.cli.__file__).resolve().parent != (SRC / "oddtrans").resolve():
        raise SystemExit(f"error: imported oddtrans from {oddtrans.cli.__file__}")
    return oddtrans.cli


def probe_setup(workload: str, seed: int) -> int:
    """Body of a set-up probe process: import, generate inputs, report ready."""
    directory = WORK / f"probe-{os.getpid()}"
    try:
        _import_program()
        workloads.build(workload, seed, directory)
        print("ready", flush=True)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return 0


def measure_setup(workload: str, seed: int) -> float:
    """Seconds from process start to first op, in one fresh probe process."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
         "--workload", workload, "--seed", str(seed)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        if proc.wait(timeout=120) != 0 or line.strip() != "ready":
            raise SystemExit("error: set-up probe failed")
    return elapsed


def calibrate() -> float:
    """Milliseconds taken by a fixed pure-Python loop.

    It does not depend on the program, so it measures how fast the machine
    runs at this moment.  Timed right before every op and every set-up
    probe, outside the timed region.
    """
    start = time.perf_counter_ns()
    total = 0
    for i in range(CALIBRATION_LOOP):
        total += i * i
    return (time.perf_counter_ns() - start) / 1e6


def scaled(duration: float, calibration_ms: float) -> float:
    """A duration rescaled to the reference speed, at which the loop takes CALIBRATION_REF_MS."""
    return duration * CALIBRATION_REF_MS / calibration_ms


def more_passes(pass_s: list[float], samples: int, seconds: float) -> bool:
    """Whether to run another pass.

    Yes until the run has ``MIN_SAMPLES`` op latencies, so that the tail is
    never read below p90 and its percentile does not change with machine
    speed; then yes while another pass, as long as the median pass so far,
    ends within half a pass of ``seconds``.
    """
    if not pass_s or samples < MIN_SAMPLES:
        return True
    return sum(pass_s) + statistics.median(pass_s) / 2 < seconds


class Client:
    """Closed-loop client: runs ops, times them, checks their outputs.

    Each op's latency is kept as measured and also rescaled to the
    reference speed by the calibration loop timed right before it.
    """

    def __init__(self, cli, tracer=None) -> None:
        self.cli = cli
        self.tracer = tracer
        self.latencies_ms: list[float] = []
        self.scaled_ms: list[float] = []
        self.calibration_ms: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run_op(self, op) -> None:
        """Run one op, time it and check it."""
        calibration = calibrate()
        out, err = io.StringIO(), io.StringIO()
        if self.tracer is not None:
            self.tracer.begin_op(self.attempted)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter_ns()
            try:
                rc = self.cli.main(op.argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception:  # a crash is a failed op; the loop keeps going
                rc = None
                err.write(traceback.format_exc())
            elapsed = time.perf_counter_ns() - start
        self.attempted += 1
        self.latencies_ms.append(elapsed / 1e6)
        self.scaled_ms.append(scaled(elapsed / 1e6, calibration))
        self.calibration_ms.append(calibration)
        try:
            op.check(rc, out.getvalue())
        except Exception as exc:  # any malformed output fails the op
            self.failed += 1
            if len(self.failures) < MAX_REPORTED_FAILURES:
                self.failures.append(
                    f"{' '.join(op.argv)}: {type(exc).__name__}: {exc} {err.getvalue()[-500:]}"
                )

    def run_pass(self, ops) -> tuple[float, float]:
        """Run every op once; returns the pass's op time in seconds, as measured and scaled."""
        first = len(self.latencies_ms)
        for op in ops:
            self.run_op(op)
        return sum(self.latencies_ms[first:]) / 1e3, sum(self.scaled_ms[first:]) / 1e3


def percentile(values: list[float], p: float) -> float:
    """The p-th percentile (p a multiple of 0.1), interpolated between closest ranks."""
    return statistics.quantiles(values, n=1000, method="inclusive")[round(p * 10) - 1]


def tail_percentile(samples: int) -> float:
    """Highest ladder percentile with at least TAIL_MIN_BEYOND samples above it."""
    for p in TAIL_LADDER:
        if int(samples * (100.0 - p) / 100.0) >= TAIL_MIN_BEYOND:
            return p
    return TAIL_LADDER[-1]


def environment(workload: str, seed: int) -> dict:
    def read(path: str) -> str | None:
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    cpuinfo = read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), platform.processor() or None)
    caches = {}
    for index in range(8):
        level = read(f"/sys/devices/system/cpu/cpu0/cache/index{index}/level")
        kind = read(f"/sys/devices/system/cpu/cpu0/cache/index{index}/type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = read(f"/sys/devices/system/cpu/cpu0/cache/index{index}/size")
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    source = hashlib.sha256()
    for path in sorted((SRC / "oddtrans").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "cache": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "workload": workload,
        "seed": seed,
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Measure one workload; returns (result object, description of the run)."""
    cli = _import_program()
    directory = WORK / f"{workload_name}-{seed}-{os.getpid()}"
    try:
        workload = workloads.build(workload_name, seed, directory)
        if trace:
            metrics, detail, client = _run_traced(cli, workload, seconds)
        else:
            metrics, detail, client = _run_untraced(cli, workload, seed, seconds)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    sizes = [(inst.family, inst.n, inst.m) for inst in workload.instances]
    info = {
        "workload": workload_name,
        "seed": seed,
        "loop": "closed, 1 client, no think time; whole passes of the op list",
        "ops_per_pass": len(workload.ops),
        "inputs": len(workload.instances),
        "inputs_sha256": workload.inputs_sha256,
        "input_n_range": [min(s[1] for s in sizes), max(s[1] for s in sizes)],
        "input_sizes": sizes,
        "fail_ratio": client.failed / client.attempted,
        "failures": client.failures,
        **detail,
        "environment": environment(workload_name, seed),
    }
    result = {
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": metrics,
    }
    return result, info


def _run_untraced(cli, workload, seed: int, seconds: float):
    """Passes until about ``seconds`` of timed ops, each after one set-up probe.

    Spreading the probes over the run lets ``setup_s`` see the same machine
    as the passes do.
    """
    client = Client(cli)
    pass_s, scaled_pass_s, setup_s, scaled_setup_s = [], [], [], []

    def probe() -> None:
        calibration = calibrate()
        setup_s.append(measure_setup(workload.name, seed))
        scaled_setup_s.append(scaled(setup_s[-1], calibration))

    while more_passes(pass_s, client.attempted, seconds):
        probe()
        raw, rescaled = client.run_pass(workload.ops)
        pass_s.append(raw)
        scaled_pass_s.append(rescaled)
    while len(setup_s) < SETUP_PROBES:
        probe()
    tail = tail_percentile(client.attempted)
    ops = len(workload.ops)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def end_to_end(passes, latencies, setups) -> dict:
        return {
            "throughput_ops_s": {"value": ops / statistics.median(passes), "unit": "1/s"},
            "op_p50_ms": {"value": percentile(latencies, 50.0), "unit": "ms"},
            "op_tail_ms": {"value": percentile(latencies, tail), "unit": "ms"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }

    calibration = statistics.quantiles(client.calibration_ms, n=4)
    detail = {
        "passes": len(pass_s),
        "pass_s": pass_s,
        "scaled_pass_s": scaled_pass_s,
        "setup_probes_s": setup_s,
        "calibration_ms_quartiles": calibration,
        "as_measured": end_to_end(pass_s, client.latencies_ms, setup_s),
        "samples": client.attempted,
        "op_tail_percentile": tail,
        "op_tail_samples_beyond": int(client.attempted * (100.0 - tail) / 100.0),
    }
    return end_to_end(scaled_pass_s, client.scaled_ms, scaled_setup_s), detail, client


def _run_traced(cli, workload, seconds: float):
    """Pairs of one untraced and one traced pass until about ``seconds`` of timed ops."""
    from tracer import Tracer

    tracer = Tracer()
    client = Client(cli, tracer)
    pair_s, untraced_s, traced_s = [], [], []
    while more_passes(pair_s, client.attempted, seconds):
        raw, untraced = client.run_pass(workload.ops)
        tracer.install()
        try:
            raw_traced, traced = client.run_pass(workload.ops)
        finally:
            tracer.uninstall()
        pair_s.append(raw + raw_traced)
        untraced_s.append(untraced)
        traced_s.append(traced)
    passes = len(pair_s)
    metrics = tracer.layer_metrics(passes)
    metrics["trace.overhead_ratio"] = {"value": sum(traced_s) / sum(untraced_s), "unit": "ratio"}
    spans_path = WORK / f"spans-{workload.name}.tsv.gz"
    tracer.write_spans(spans_path)
    detail = {
        "passes": passes,
        "calibration_ms_quartiles": statistics.quantiles(client.calibration_ms, n=4),
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "absent": sorted(tracer.absent),
    }
    return metrics, detail, client


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _require_sources()
    WORK.mkdir(exist_ok=True)
    if args.probe_setup:
        return probe_setup(args.workload, args.seed)
    result, info = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for failure in info["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"fail_ratio = {info['fail_ratio']:.6g} ratio"
          f" ({result['failed']} of {result['attempted']} ops failed)")
    low, mid, high = info["calibration_ms_quartiles"]
    print(f"calibration loop = {mid:.4g} ms (quartiles {low:.4g}-{high:.4g})")
    if "as_measured" in info:
        print(f"op_tail_ms is p{info['op_tail_percentile']:g} of {info['samples']} samples"
              f" ({info['op_tail_samples_beyond']} beyond), {info['passes']} passes")
        print(f"times above are rescaled to a machine on which the calibration loop takes"
              f" {CALIBRATION_REF_MS:g} ms; as measured:")
        for name, metric in info["as_measured"].items():
            print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
