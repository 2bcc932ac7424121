#!/usr/bin/env python3
"""Benchmark of the smallgain command line: check, certify, simulate, verify.

Run from the repository root:

    python3 perfbench/run.py --workload certify-mix --seed 1 --seconds 30 --trace 0

One caller in one process drives ``smallgain.cli.main`` in a closed loop
over a seeded job list (see ``workloads.py``), with stdout captured and
outputs written to a scratch directory under ``perfbench/_work`` that is
removed at exit.  Every answer is judged against ``oracle.py``, which does
not use the program.  ``--trace 0`` times the jobs and prints the
end-to-end metrics; ``--trace 1`` runs a fixed prefix of the job list
untraced and then traced, and prints per-layer metrics of the traced pass
(span records go to ``perfbench/out``).  A certify-mix run also runs the
known-defect reproducers once, untimed (``workloads.DEFECT_CASES``), and
reports their outcomes apart from the result line's operation counts.  The
last stdout line is one JSON object.
"""

from __future__ import annotations

import os
import sys

# Hygiene before numpy is imported anywhere in this process: one BLAS
# thread, and no environment seed overriding the explicit --seed.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("SMALLGAIN_SEED", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# the program's own seed; the workload seed only shapes the generated inputs
PROGRAM_SEED = "0"
SETUP_REPEATS = 7
# Per-call time limit.  Path construction on a few holding networks runs
# for tens of seconds (75 s once on an n = 5 irreducible sum network); the
# call is interrupted, counted as failed ("timeout"), and its latency is the
# limit, so a run still ends in time and keeps its share of other jobs.
CALL_LIMIT_S = 10.0
# jobs of the traced run: a fixed prefix, so counts repeat exactly per seed
TRACE_JOBS = {"certify-mix": 15, "scale-n": 6, "verify-models": 6}
# tail quantile per workload: a timed run normally completes enough jobs to
# leave at least ten beyond it, and a fixed quantile keeps runs comparable
TAIL_QUANTILE = {"certify-mix": 0.9, "scale-n": 0.85, "verify-models": 0.75}

# Calibration: a fixed mix of interpreter work and small numpy calls, like
# the program's own, timed before every job and every set-up trial.  On the
# virtual machine this was built on, the same code ran up to twice as slow
# for minutes at a time; scaling each time by CAL_REF_MS over the median of
# the last five calibration samples takes that out (window medians of a
# fixed simulate call moved by 47% raw and by 4% scaled).  Reported times are
# thus in milliseconds of a machine on which the calibration takes 2 ms.
CAL_REF_MS = 2.0
CAL_WINDOW = 5
_CAL_X = np.linspace(0.0, 1.0, 64)

SETUP_CODE = """
import os, sys
sys.path.insert(0, sys.argv[1])
from smallgain import cli
for name in sorted(os.listdir(sys.argv[2])):
    cli.load_config(os.path.join(sys.argv[2], name))
os._exit(0)
"""


class CallTimeout(Exception):
    """Raised in the program's frame by SIGALRM when a call hits the limit."""


def _on_alarm(signum, frame):
    raise CallTimeout()


@dataclass
class Op:
    job: int
    cmd: str
    seconds: float
    code: object
    outcome: str = ""
    scaled: float = 0.0


# ---------------------------------------------------------------------------
# Running and judging one CLI call


def run_op(cli, k, cmd, cfg, prefix) -> tuple:
    argv = [cmd, cfg, "--seed", PROGRAM_SEED]
    if cmd == "certify":
        argv += ["--out", prefix]
    elif cmd == "simulate":
        argv += ["--out", prefix + ".traj.csv"]
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            signal.setitimer(signal.ITIMER_REAL, CALL_LIMIT_S)
            try:
                code = cli.main(argv)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
    except CallTimeout:
        code = "timeout"
    except SystemExit as exc:
        code = exc.code
    except Exception:
        # the loop must keep running; the traceback goes with the op
        code = "raised: " + traceback.format_exc(limit=3)
    elapsed = time.perf_counter() - t0
    return Op(k, cmd, elapsed, code), out.getvalue()


def judge(job, cmd, code, text, prefix) -> str:
    """ok, wrong (verdict contradicts the oracle), undecided (exit 1 with a
    constructor error where the oracle knows the answer), rejected (output
    fails the independent re-check), timeout, error, or unknown (no oracle
    answer)."""
    if code == "timeout":
        return "timeout"
    if code not in (0, 1):
        return "error"
    if job.expect is None:
        return "unknown"
    holds = job.expect == oracle.HOLDS
    if cmd == "check":
        said_fails = "verdict: CertifiedFails" in text
        if code == 0:
            return "ok" if holds else "wrong"
        if said_fails:
            return "wrong" if holds else "ok"
        return "undecided"
    if cmd == "certify":
        if not holds:
            return "wrong" if code == 0 else "ok"
        if code == 1:
            return "undecided"
        ok, _ = oracle.recheck_path_csv(job.doc, prefix + ".path.csv")
        return "ok" if ok else "rejected"
    if cmd == "simulate":
        if code == 1:
            return "undecided"
        return "ok" if check_trajectory(job.doc, prefix + ".traj.csv") else "rejected"
    if cmd == "verify":
        if code == 0:
            return "ok"
        return "wrong" if "verdict=fail" in text else "undecided"
    raise ValueError(cmd)


def failed(job, op) -> bool:
    if op.outcome in ("wrong", "rejected", "error", "timeout"):
        return True
    return op.outcome == "undecided" and job.expect == oracle.HOLDS


def _expm(M):
    # scaling and squaring with a Taylor core
    k = max(0, int(np.ceil(np.log2(max(np.abs(M).sum(axis=1).max(), 1e-300)))) + 2)
    A = M / 2.0 ** k
    E, term = np.eye(len(M)), np.eye(len(M))
    for j in range(1, 20):
        term = term @ A / j
        E = E + term
    for _ in range(k):
        E = E @ E
    return E


def check_trajectory(doc, path) -> bool:
    """Row count, initial state, finiteness; decay when undriven; for an
    undriven linear bank the final state against the matrix exponential."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    sim = doc["simulation"]
    x0 = np.array(sim["x0"], float)
    steps = max(int(round(sim["T"] / sim["dt"])), 1)
    x = data[:, 1:1 + len(x0)]
    if data.shape[0] != steps + 1 or not np.all(np.isfinite(data)):
        return False
    if not np.allclose(x[0], x0, rtol=1e-11, atol=0.0):  # written with 12 digits
        return False
    if "input" in sim:
        return True
    if np.linalg.norm(x[-1]) >= np.linalg.norm(x0):
        return False
    model = doc["model"]
    if model["family"] != "linear":
        return True
    dims = [len(a) for a in model["A"]]
    off = np.concatenate([[0], np.cumsum(dims)])
    M = np.zeros((off[-1], off[-1]))
    for i, a in enumerate(model["A"]):
        M[off[i]:off[i + 1], off[i]:off[i + 1]] = a
    for c in model.get("coupling", []):
        M[off[c["i"]]:off[c["i"] + 1], off[c["j"]]:off[c["j"] + 1]] = c["matrix"]
    exact = _expm(M * (steps * sim["dt"])) @ x0
    return bool(np.max(np.abs(x[-1] - exact)) <= 1e-6 * (1.0 + np.max(np.abs(x0))))


# ---------------------------------------------------------------------------
# Phases


def calibration_ms() -> float:
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(300):
        acc += float(np.max(_CAL_X * 1.0001 + i))
        for j in range(20):
            acc += j * 0.5
    return (time.perf_counter() - t0) * 1e3


class Calibration:
    """Sliding window of calibration samples; ``scale`` takes a new sample
    and returns the factor from this machine's current speed to the
    reference one."""

    def __init__(self):
        self.samples: list = []

    def scale(self) -> float:
        self.samples.append(calibration_ms())
        return CAL_REF_MS / statistics.median(self.samples[-CAL_WINDOW:])


def measure_setup(cfg_dir: Path, cal: Calibration) -> tuple:
    """Median over fresh interpreters that import smallgain and load every
    config of the workload: (scaled seconds, raw wall seconds)."""
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        factor = cal.scale()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(cfg_dir)],
                       check=True)
        raw.append(time.perf_counter() - t0)
        scaled.append(raw[-1] * factor)
    return statistics.median(scaled), statistics.median(raw)


class Runner:
    def __init__(self, cli, jobs, cfgs, out_dir, tracer=None):
        self.cli, self.jobs, self.cfgs = cli, jobs, cfgs
        self.out_dir = out_dir
        self.tracer = tracer
        self.cal = Calibration()
        self.ops: list = []
        self.job_ids: list = []
        self.job_seconds: list = []
        self.job_scaled: list = []
        self.judge_seconds = 0.0

    def job(self, k: int, record: bool = True) -> float:
        job = self.jobs[k]
        prefix = str(self.out_dir / f"j{k}")
        factor = self.cal.scale()
        total = 0.0
        for cmd in job.commands:
            if self.tracer is not None:
                self.tracer.op = len(self.ops)
            op, text = run_op(self.cli, k, cmd, self.cfgs[k], prefix)
            op.scaled = op.seconds * factor
            total += op.seconds
            t0 = time.perf_counter()
            op.outcome = judge(job, cmd, op.code, text, prefix)
            self.judge_seconds += time.perf_counter() - t0
            if record:
                self.ops.append(op)
        if record:
            self.job_ids.append(k)
            self.job_seconds.append(total)
            self.job_scaled.append(total * factor)
        return total


def warm_up(runner: Runner) -> None:
    """Run the first job of every stratum once, unrecorded."""
    seen = set()
    for k, job in enumerate(runner.jobs):
        if job.stratum not in seen:
            seen.add(job.stratum)
            runner.job(k, record=False)


def timed(runner: Runner, seconds: float) -> float:
    """Closed loop over the job list until the clock runs out; returns the
    wall time of the phase less the time spent judging outputs."""
    runner.judge_seconds = 0.0
    t0 = time.perf_counter()
    deadline = t0 + seconds
    k = 0
    while time.perf_counter() < deadline:
        runner.job(k % len(runner.jobs))
        k += 1
    return time.perf_counter() - t0 - runner.judge_seconds


def traced(runner: Runner, tracer, seconds: float, count: int, spans_path: Path):
    """After one warm-up pass, pairs of untraced and traced passes over the
    first ``count`` jobs until the clock runs out.  Per-layer metrics are
    medians over the traced passes; the overhead is traced minus untraced
    time over untraced time."""
    for k in range(count):
        runner.job(k, record=False)
    t_end = time.perf_counter() + seconds
    plain, spanned, per_pass = 0.0, 0.0, []
    while not per_pass or time.perf_counter() < t_end:
        plain += sum(runner.job(k) for k in range(count))
        tracer.reset()
        tracer.install()
        try:
            spanned += sum(runner.job(k) for k in range(count))
        finally:
            tracer.uninstall()
        per_pass.append(spans.layer_metrics(tracer.summary()))
    tracer.write(spans_path)
    metrics = {name: (statistics.median(p[name][0] for p in per_pass), unit)
               for name, (_, unit) in per_pass[0].items()}
    metrics["trace.overhead_pct"] = (100.0 * (spanned - plain) / plain, "%")
    return metrics, len(per_pass)


# ---------------------------------------------------------------------------
# Reporting


def latency_stats(values, quantile=1.0) -> tuple:
    """Median and tail in ms; the tail quantile is ``quantile`` or lower, so
    that at least ten samples lie beyond it (0.5 at the lowest)."""
    arr = np.asarray(values) * 1e3
    q = max(0.5, min(quantile, 1.0 - 10.0 / len(arr)))
    return float(np.median(arr)), float(np.quantile(arr, q)), q


def environment() -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def correctness(pairs) -> dict:
    """Counts over (job, op) pairs."""
    counts = {o: 0 for o in ("ok", "wrong", "undecided", "rejected", "timeout",
                             "error", "unknown")}
    unexpected = []
    fails = 0
    for job, op in pairs:
        counts[op.outcome] += 1
        fails += failed(job, op)
        pinned = workloads.KNOWN_DEFECTS.get((job.name, op.cmd))
        if op.outcome in ("wrong", "rejected", "error") and op.outcome != pinned:
            unexpected.append(f"{job.name} {op.cmd}: {op.outcome} ({op.code!r:.200})")
    known = sum(1 for _, op in pairs if op.outcome != "unknown")
    return {
        "failed": fails,
        "failed_ratio": fails / len(pairs),
        "wrong_verdicts": counts["wrong"],
        "undecided_ratio": counts["undecided"] / known if known else 0.0,
        "outcomes": counts,
        "unexpected": sorted(set(unexpected)),
    }


def per_command(jobs, ops) -> dict:
    """Calibrated latency of each command, with its tail quantile and count."""
    out = {}
    for cmd in ("check", "certify", "simulate", "verify"):
        vals = [op.scaled for op in ops if op.cmd == cmd]
        if vals:
            p50, tail, q = latency_stats(vals)
            out[f"{cmd}_p50_ms"] = p50
            out[f"{cmd}_tail_ms"] = tail
            out[f"{cmd}_tail_quantile"] = q
            out[f"{cmd}_samples"] = len(vals)
    return out


def report(args, jobs, runner, metrics, extra, probe=None) -> int:
    """Prints the metrics; failed_ratio, wrong_verdicts and undecided_ratio
    count the defect probe's calls too, the result line only the workload's."""
    ops = runner.ops
    timed_pairs = [(jobs[op.job], op) for op in ops]
    probe_pairs = [(probe.jobs[op.job], op) for op in probe.ops] if probe else []
    fails = correctness(timed_pairs)["failed"]
    corr = correctness(timed_pairs + probe_pairs)
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": environment(), "jobs_in_list": len(jobs),
              "operations": len(ops), "failed_operations": fails, **extra,
              **{k: v for k, v in corr.items() if k != "failed"},
              "defect_probe": [[job.name, op.cmd, op.outcome] for job, op in probe_pairs],
              "per_command": per_command(jobs, ops),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(ops)} operations, {fails} failed")
    if probe_pairs:
        print(f"defect probe (untimed, not in the operation counts): "
              f"{len(probe_pairs)} calls, {corr['failed'] - fails} failed: "
              + ", ".join(f"{job.name} {op.cmd} {op.outcome}" for job, op in probe_pairs))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    for name, value in detail["per_command"].items():
        print(f"  {name:<44} {value:>14.6g} {_unit(name)}")
    if "ops_per_s" in extra:
        print(f"  {'ops_per_s':<44} {extra['ops_per_s']:>14.6g} 1/s")
    print(f"  {'failed_ratio':<44} {corr['failed_ratio']:>14.6g} ratio")
    print(f"  {'wrong_verdicts':<44} {corr['wrong_verdicts']:>14d} count")
    print(f"  {'undecided_ratio':<44} {corr['undecided_ratio']:>14.6g} ratio")
    for line in corr["unexpected"]:
        print(f"  unexpected: {line}")
    print("detail " + json.dumps(detail))
    result = {"correct": not corr["unexpected"], "attempted": len(ops),
              "failed": fails,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    return "quantile" if name.endswith("quantile") else "count"


# ---------------------------------------------------------------------------
# Entry point


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "smallgain" / "__init__.py").is_file():
        print(f"error: no smallgain sources under {SRC}", file=sys.stderr)
        return 2

    jobs = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    signal.signal(signal.SIGALRM, _on_alarm)
    (HERE / "_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=HERE / "_work"))
    try:
        cfg_dir, out_dir, probe_dir = work / "configs", work / "out", work / "defect"
        for d in (cfg_dir, out_dir, probe_dir):
            d.mkdir()
        cfgs = []
        for k, job in enumerate(jobs):
            cfgs.append(str(cfg_dir / f"c{k:04d}.json"))
            Path(cfgs[-1]).write_text(json.dumps(job.doc))
        probe_jobs = workloads.defect_probe() if args.workload == "certify-mix" else []
        probe_cfgs = []
        for k, job in enumerate(probe_jobs):
            probe_cfgs.append(str(probe_dir / f"c{k}.json"))
            Path(probe_cfgs[-1]).write_text(json.dumps(job.doc))
        sys.path.insert(0, str(SRC))
        import smallgain
        from smallgain import cli
        if Path(smallgain.__file__).resolve().parent != SRC / "smallgain":
            raise ImportError(f"smallgain was loaded from {smallgain.__file__}")

        if args.trace:
            tracer = spans.Tracer(smallgain)
            runner = Runner(cli, jobs, cfgs, out_dir, tracer)
            (HERE / "out").mkdir(exist_ok=True)
            path = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.csv"
            metrics, passes = traced(runner, tracer, args.seconds,
                                     TRACE_JOBS[args.workload], path)
            return report(args, jobs, runner, metrics,
                          {"traced_passes": passes, "spans": str(path.relative_to(ROOT))})

        runner = Runner(cli, jobs, cfgs, out_dir)
        setup_s, setup_raw = measure_setup(cfg_dir, runner.cal)
        warm_up(runner)
        wall = timed(runner, args.seconds)
        probe = Runner(cli, probe_jobs, probe_cfgs, probe_dir)
        for k in range(len(probe_jobs)):
            probe.job(k)
        quantile = TAIL_QUANTILE[args.workload]
        p50, tail, q = latency_stats(runner.job_scaled, quantile)
        raw_p50, raw_tail, _ = latency_stats(runner.job_seconds, quantile)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": (setup_s, "s"),
            "latency_p50_ms": (p50, "ms"),
            "latency_tail_ms": (tail, "ms"),
            "peak_rss_mb": (rss, "MB"),
        }
        slowest = sorted(zip(runner.job_seconds, runner.job_ids))[-3:]
        return report(args, jobs, runner, metrics, {
            "jobs_timed": len(runner.job_seconds), "tail_quantile": q,
            "ops_per_s": len(runner.ops) / wall,
            "raw": {"setup_s": setup_raw, "latency_p50_ms": raw_p50,
                    "latency_tail_ms": raw_tail},
            "calibration_ms": statistics.median(runner.cal.samples),
            "slowest_jobs": [[jobs[k].name, s] for s, k in reversed(slowest)]}, probe)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
