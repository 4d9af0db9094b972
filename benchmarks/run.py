"""kuniform benchmark: four seeded workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout::

    python3 benchmarks/run.py --workload hadamard_k2 --seed 1 --seconds 15 --trace 0
    python3 benchmarks/run.py --self-check

A run starts fresh single-threaded worker processes of this script (BLAS and
OpenMP pinned to one thread): with ``--trace 0``, four that only set up and a
fifth that sets up and then repeats the workload's job list (one pass) until
the jobs have taken ``--seconds`` at the reference machine speed (see
SpeedLog), checking every answer outside the timed sections.  It prints a
report line and, last, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``:

* ``--trace 0``: setup_s (median over the five processes, from process
  start to the first timed job), wall_s (median pass time), job_p50_ms,
  job_tail_ms (the highest latency percentile with ten samples beyond it;
  the report line names it) and peak_rss_mb.
* ``--trace 1``: the per-layer metrics of one traced pass (the one with the
  median time; passes alternate untraced and traced), see tracing.py.

Reports and the traced pass's spans are also written to benchmarks/out/.
``--self-check`` runs every workload on a small job list, both ways, and
checks the output against BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("hadamard_k2", "bush_k3", "sign_repair", "catalog")
REQUIRED = (ROOT / "src" / "kuniform" / "__init__.py", ROOT / "tests" / "oracles.py")
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
SETUP_RUNS = 5
TAIL_BEYOND = 10
DEADLINE_S = 170.0        # whole run, so it ends within three minutes
PASS_CAP_S = 120.0        # stop starting passes after this long
SLOW_MACHINE_CAP = 1.8    # ... or after this many times --seconds

#: The machine's speed drifts by tens of percent over seconds, as other
#: tenants load it.  A fixed kernel that does not use kuniform is timed
#: between jobs, at most every CALIBRATE_EVERY_S, and a job's time is scaled
#: by CALIBRATION_REF_S over the median kernel time within SPEED_WINDOW_S of
#: the job, raised to the workload's speed elasticity: times are reported at
#: the speed at which the kernel takes CALIBRATION_REF_S.  Raw times go to
#: the report line.
CALIBRATION_REF_S = 0.005
CALIBRATE_EVERY_S = 0.2
SPEED_WINDOW_S = 1.0
DIGITS8 = "01234567"


def monotonic() -> float:
    """System-wide monotonic clock, comparable across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def calibration_kernel() -> float:
    """Seconds for a fixed mix of the library's staple operations: string
    keys, dict grouping and small dense complex-matrix checks.  It keeps
    its arrays small so that it does not raise the peak memory."""
    import numpy as np

    start = time.perf_counter()
    groups: dict = {}
    for i in range(4000):
        key = "".join([DIGITS8[(i >> shift) & 7] for shift in (0, 3, 6, 9)])
        groups.setdefault(key[1:], []).append((i, key))
    matrix = np.full((160, 160), 0.5 + 0.5j)
    for _ in range(6):
        deviation = float(np.max(np.abs(matrix - matrix.conj().T)))
        matrix = matrix * 0.999 + deviation
    return time.perf_counter() - start


class SpeedLog:
    """Calibration kernel times over a run."""

    def __init__(self) -> None:
        self.samples: list = []   # (monotonic time, kernel seconds)
        self.sample()

    def sample(self) -> None:
        """The fastest of three kernel runs, so that caches and allocator
        state left by the previous job do not count as machine speed."""
        self.samples.append((monotonic(), min(calibration_kernel()
                                              for _ in range(3))))

    def sample_if_due(self) -> None:
        if monotonic() - self.samples[-1][0] >= CALIBRATE_EVERY_S:
            self.sample()

    def scale(self, start: float, end: float, elasticity: float = 1.0) -> float:
        """(Reference speed over the speed from `start` to `end`) to the
        power `elasticity`: the factor that brings a time measured then to
        the reference speed."""
        near = [s for t, s in self.samples
                if start - SPEED_WINDOW_S <= t <= end + SPEED_WINDOW_S]
        if len(near) < 3:
            middle = (start + end) / 2
            near = [s for _, s in sorted(self.samples,
                                         key=lambda ts: abs(ts[0] - middle))[:3]]
        return (CALIBRATION_REF_S / statistics.median(near)) ** elasticity


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="small job lists, for the self-check")
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--worker", choices=("setup", "run"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    return args


# ---------------------------------------------------------------------------
# worker process
# ---------------------------------------------------------------------------

def worker(args) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import kuniform
    if Path(kuniform.__file__).resolve().parent != ROOT / "src" / "kuniform":
        print(f"error: imported kuniform from {kuniform.__file__}", file=sys.stderr)
        return 1
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        jobs = workloads.build(args.workload, args.seed, args.quick, workdir)
        setup_s = monotonic() - args.spawned_at
        speed = SpeedLog()
        for _ in range(4):
            speed.sample()
        setup_speed = speed.scale(speed.samples[0][0], speed.samples[-1][0])
        if args.worker == "setup":
            print(json.dumps({"setup_s": setup_s, "setup_speed": setup_speed}))
            return 0
        result = measure(jobs, args.seconds, bool(args.trace), args.workload,
                         workloads.SPEED_ELASTICITY.get(args.workload, 1.0))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    import resource
    import numpy
    result.update(setup_s=setup_s, setup_speed=setup_speed,
                  numpy=numpy.__version__,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                  * 1024 / 1e6)
    print(json.dumps(result))
    return 0


def run_pass(jobs, tracer, speed, failures):
    """Run every job once; returns (start, end, seconds) per job."""
    from checks import CheckFailed

    times = []
    for job in jobs:
        speed.sample_if_due()
        tracer.recording = tracer.installed
        began = monotonic()
        try:
            answer, error = job.run(tracer), None
        except Exception as exc:  # a library error is a failed job
            answer, error = None, exc
        ended = monotonic()
        tracer.recording = False
        times.append((began, ended, ended - began))
        try:
            if error is not None:
                raise CheckFailed(f"raised {error!r}")
            job.check(answer)
        except CheckFailed as exc:
            failures.append(f"{job.name}: {exc}")
        except Exception:
            failures.append(f"{job.name}: check crashed\n{traceback.format_exc()}")
    return times


def measure(jobs, seconds, traced, workload, elasticity) -> dict:
    """Repeat the job list until the jobs have taken `seconds` at the
    reference speed, so that the number of passes does not depend on the
    machine's drift; on a very slow machine, stop after SLOW_MACHINE_CAP
    times `seconds`.  With tracing, passes alternate untraced and traced
    and at least one of each runs."""
    from tracing import Tracer

    untraced = Tracer()
    speed = SpeedLog()
    passes, failures = [], []   # (tracer, job times) per pass
    start = monotonic()
    cap = min(PASS_CAP_S, SLOW_MACHINE_CAP * seconds)
    measured = 0.0
    while True:
        traced_count = sum(tracer is not untraced for tracer, _ in passes)
        tracer = Tracer() if traced and len(passes) > 2 * traced_count else untraced
        if tracer is not untraced:
            tracer.install()
        try:
            passes.append((tracer, run_pass(jobs, tracer, speed, failures)))
        finally:
            tracer.uninstall()
        measured += sum(latency * speed.scale(began, ended, elasticity)
                        for began, ended, latency in passes[-1][1])
        enough = len(passes) >= (2 if traced else 1)
        if enough and (measured >= seconds or monotonic() - start >= cap):
            break
    speed.sample()
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)

    walls, raw_walls, latencies, traced_passes = [], [], [], []
    for tracer, times in passes:
        scaled = [latency * speed.scale(began, ended, elasticity)
                  for began, ended, latency in times]
        raw = sum(latency for _, _, latency in times)
        if tracer is untraced:
            walls.append(sum(scaled))
            raw_walls.append(raw)
            latencies.extend(scaled)
        else:
            traced_passes.append((sum(scaled), raw, tracer))
    result = {"attempted": len(jobs) * len(passes), "failed": len(failures),
              "passes": len(passes), "jobs_per_pass": len(jobs),
              "raw_walls_s": raw_walls, "walls_s": walls}
    wall_s = statistics.median(walls)
    if traced:
        traced_passes.sort(key=lambda p: p[0])
        wall, raw_wall, tracer = traced_passes[(len(traced_passes) - 1) // 2]
        layers = tracer.layer_metrics(raw_wall, speed=wall / raw_wall)
        layers["trace.untraced_wall_s"] = wall_s
        layers["trace.overhead_s"] = wall - wall_s
        tracer.write_spans(OUT / f"{workload}.spans")
        result["layers"] = layers
        return result
    ordered = sorted(latencies)
    # with ten samples or fewer there is no such percentile; report the max
    rank = len(ordered) - 1 - (TAIL_BEYOND if len(ordered) > TAIL_BEYOND else 0)
    result.update(
        wall_s=wall_s,
        job_p50_ms=statistics.median(ordered) * 1e3,
        job_tail_ms=ordered[rank] * 1e3,
        tail_percentile=100.0 * (rank + 1) / len(ordered),
        samples=len(ordered))
    return result


# ---------------------------------------------------------------------------
# parent process
# ---------------------------------------------------------------------------

def spawn(args, role: str, deadline: float) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spawned-at", repr(monotonic())]
    if args.quick:
        cmd.append("--quick")
    proc = subprocess.run(cmd, env=dict(os.environ, **PINNED_ENV), cwd=ROOT,
                          capture_output=True, text=True,
                          timeout=max(deadline - monotonic(), 1.0))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{role} process exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metadata() -> dict:
    sources = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        sha = proc.stdout.strip() or None
    return {"git_sha": sha, "src_sha256": digest.hexdigest(), "src_lines": lines,
            "python": sys.version.split()[0], "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0))}


def parent(args) -> int:
    missing = [str(p.relative_to(ROOT)) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"error: not a kuniform checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 1
    deadline = monotonic() + DEADLINE_S
    try:
        runs = [] if args.trace else [
            spawn(args, "setup", deadline) for _ in range(SETUP_RUNS - 1)]
        result = spawn(args, "run", deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    runs.append(result)
    raw_setups = [run["setup_s"] for run in runs]
    setups = [run["setup_s"] * run["setup_speed"] for run in runs]
    if args.trace:
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in result["layers"].items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": result["wall_s"], "unit": "s"},
            "job_p50_ms": {"value": result["job_p50_ms"], "unit": "ms"},
            "job_tail_ms": {"value": result["job_tail_ms"], "unit": "ms"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
    attempted, failed = result["attempted"], result["failed"]
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "quick": args.quick,
        "meta": dict(metadata(), numpy=result["numpy"]),
        "passes": result["passes"], "jobs_per_pass": result["jobs_per_pass"],
        "failed_frac": failed / attempted,
        "setup_samples_s": setups, "raw_setup_samples_s": raw_setups,
        "pass_walls_s": result["walls_s"], "raw_pass_walls_s": result["raw_walls_s"],
    }
    if not args.trace:
        report["job_tail"] = {"percentile": result["tail_percentile"],
                              "samples": result["samples"],
                              "beyond": TAIL_BEYOND}
    final = {"correct": failed == 0, "attempted": attempted, "failed": failed,
             "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    suffix = ".trace" if args.trace else ""
    (OUT / f"{args.workload}{suffix}.json").write_text(
        json.dumps(dict(report, result=final), indent=2) + "\n")
    print(json.dumps({"report": report}))
    print(json.dumps(final))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("bytes"):
        return "B"
    return "count"


# ---------------------------------------------------------------------------
# self-check
# ---------------------------------------------------------------------------

def self_check() -> int:
    """Every workload on its small job list, untraced and traced; the output
    must follow BENCHMARK.json and the layer times must add up."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.py's")
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    layer_self = [f"{layer}.self_s" for layer in
                  ("states", "linalg", "graphs", "oa", "constructions", "phases",
                   "serialize", "cli")]
    for workload in WORKLOADS:
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload",
                 workload, "--seed", "1", "--seconds", "0", "--trace",
                 str(trace), "--quick"],
                cwd=ROOT, capture_output=True, text=True, timeout=DEADLINE_S + 10)
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}\n{proc.stderr}")
                print(f"{label}: failed")
                continue
            before = len(problems)
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            metrics = out["metrics"]
            if sorted(out) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{label}: result keys {sorted(out)}")
            if not out["correct"] or out["failed"] or out["attempted"] < 1:
                problems.append(f"{label}: answers failed\n{proc.stderr}")
            units = {name: m["unit"] for name, m in metrics.items()}
            if units != expected[trace]:
                problems.append(f"{label}: metrics/units differ from BENCHMARK.json: "
                                f"{sorted(set(units.items()) ^ set(expected[trace].items()))}")
            if any(not isinstance(m["value"], (int, float)) or
                   not math.isfinite(m["value"]) for m in metrics.values()):
                problems.append(f"{label}: non-finite metric value")
            if trace and len(problems) == before:
                total = sum(metrics[name]["value"] for name in layer_self)
                gap = total + metrics["trace.unattributed_s"]["value"] - \
                    metrics["trace.wall_s"]["value"]
                if abs(gap) > 1e-9:
                    problems.append(f"{label}: layer self times miss the wall by {gap}")
            print(f"{label}: {'ok' if len(problems) == before else 'failed'}")
    for line in problems:
        print(f"PROBLEM {line}")
    return 1 if problems else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.self_check:
        return self_check()
    if args.worker:
        return worker(args)
    return parent(args)


if __name__ == "__main__":
    sys.exit(main())
