"""ipsim benchmark: closed-loop Monte-Carlo experiments, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --compare RESULTS_A RESULTS_B

Run it from the repository root. ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a separate traced run; the
last line of standard output is one JSON object. Every run also writes its
full record (environment, checks, report hashes, raw timings) as a JSON
file into ``--results`` (default ``.perfbench_runs/results``); ``--compare``
reads two such directories. See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from hostspeed import REFERENCE_MS, CalibrationProcess  # noqa: E402
from workloads import END_TO_END, WORKLOADS  # noqa: E402

SETUP_REPEATS = 3  # fresh processes per run whose set-up time is measured
RUN_LIMIT_S = 170  # a run ends within 180 s
# one BLAS thread in every workload process
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
NO_WAIT_NOTE = (
    "layers do not wait on each other: sessions run single-threaded in one process "
    "with no queues, so no wait times are reported"
)


class BenchError(RuntimeError):
    pass


def _calibrate() -> dict[str, float]:
    # in a child process: numpy imported here would raise the floor of every
    # workload process's ru_maxrss, which Linux carries across fork and exec
    with CalibrationProcess() as host:
        return host.calibrate()


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git() -> dict:
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None}

    def git(*args):
        return subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30, check=True
        ).stdout.strip()

    try:
        return {
            "sha": git("rev-parse", "HEAD"),
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        }
    except (OSError, subprocess.SubprocessError):
        return {"sha": None, "dirty": None}


def environment() -> dict:
    return {
        "git": _git(),
        "python": platform.python_version(),
        "blas_threads": BLAS_ENV,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
    }


def _worker(args: list[str], deadline: float) -> dict:
    env = dict(os.environ, **BLAS_ENV)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run time limit reached")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError("workload process exceeded the run time limit") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload process failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: int, trace: bool, results_dir: Path) -> dict:
    """One benchmark run of one workload; returns its full record."""
    w = WORKLOADS[name]
    deadline = time.monotonic() + RUN_LIMIT_S
    stem = f"{name}_seed{seed}_trace{int(trace)}_{time.time_ns()}"
    work_dir = ROOT / ".perfbench_runs" / f"work-{os.getpid()}"
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "loop": "closed, one caller in one process",
        "trials_per_experiment": w.trials_per_experiment,
        "calibration_start_ms": _calibrate(),
        "env": environment(),
    }
    common = ["--workload", name, "--seed", str(seed), "--work-dir", str(work_dir)]
    try:
        if trace:
            results_dir.mkdir(parents=True, exist_ok=True)
            spans = results_dir / f"{stem}.spans.json.gz"
            out = _worker([*common, "--mode", "trace", "--spans", str(spans)], deadline)
            record["spans_file"] = spans.name
            setups = []
        else:
            setups = [
                _worker([*common, "--mode", "setup"], deadline) for _ in range(SETUP_REPEATS - 1)
            ]
            out = _worker([*common, "--mode", "measure", "--seconds", str(seconds)], deadline)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    record["calibration_end_ms"] = _calibrate()
    record["worker"] = out
    record["env"].update(numpy=out["numpy"], blas=out["blas"], pinned_cpu=out["cpu"])
    attempted, failed = out["attempted"], out["failed"]
    record.update(
        attempted=attempted,
        failed=failed,
        correct=failed == 0 and not out["problems"],
    )
    if trace:
        record["metrics"] = out.get("layers", {})  # absent when the traced run failed a check
        if record["metrics"]:
            record["trace_overhead_p50_ms"] = out["traced_p50_ms"] - out["untraced_p50_ms"]
    else:
        setups.append(out)
        record["setup_samples_s"] = [o["setup_s"] for o in setups]
        record["setup_samples_s_raw"] = [o["setup_s_raw"] for o in setups]
        record["setup_s_raw"] = statistics.median(record["setup_samples_s_raw"])
        record["setup_wall_s"] = statistics.median(o["setup_wall_s"] for o in setups)
        values = {  # timings are absent when every experiment raised
            "sessions_per_s": out.get("sessions_per_s"),
            "session_p50_ms": out.get("session_p50_ms"),
            "session_tail_ms": out.get("session_tail_ms"),
            "setup_s": statistics.median(record["setup_samples_s"]),
            "peak_rss_mb": out["peak_rss_mb"],
            "ok_frac": (attempted - failed) / attempted,
        }
        record["metrics"] = {k: {"value": values[k], "unit": END_TO_END[k][0]} for k in END_TO_END}
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def print_record(rec: dict):
    out = rec["worker"]
    env = rec["env"]
    print(f"== {rec['workload']}  seed {rec['seed']}  trace {rec['trace']}  ({rec['loop']})")
    if not rec["trace"]:
        print(
            f"  times are process CPU time scaled by host-speed probes; "
            f"unscaled in [], wall time in {{}}"
        )
    for name, m in rec["metrics"].items():
        note = ""
        if name == "sessions_per_s":
            note = (
                f"[{out['sessions_per_s_raw']:.6g}] {{{out['sessions_per_wall_s']:.6g}}} median of "
                f"{out['experiments']} experiments of {rec['trials_per_experiment']} trials"
            )
        elif name == "session_p50_ms":
            note = (
                f"[{out['session_p50_ms_raw']:.6g}] {{{out['session_p50_wall_ms']:.6g}}} "
                f"{out['sessions_timed']} sessions timed around run_one"
            )
        elif name == "session_tail_ms":
            note = (
                f"[{out['session_tail_ms_raw']:.6g}] p{out['tail_percentile']:.1f}, "
                f"{out['tail_sessions_above']} sessions above, median of {out['tail_blocks']} blocks"
            )
        elif name == "setup_s":
            samples = ", ".join(f"{s:.3f}" for s in rec["setup_samples_s"])
            note = f"[{rec['setup_s_raw']:.6g}] {{{rec['setup_wall_s']:.6g}}} median of {samples}"
        elif name == "ok_frac":
            note = f"{rec['failed']} of {rec['attempted']} sessions failed"
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']:6s} {note}")
    if rec["trace"] and rec["metrics"]:
        print(
            f"  tracing overhead on session_p50_ms: {rec['trace_overhead_p50_ms']:+.3f} ms "
            f"(untraced {out['untraced_p50_ms']:.3f}, traced {out['traced_p50_ms']:.3f}; "
            f"{out['spans_stored']} spans stored)"
        )
        print(f"  {NO_WAIT_NOTE}")
    checks = "ok" if rec["correct"] else "FAILED"
    print(f"  output checks {checks}; {len(out['report_sha256'])} report.json hashes recorded")
    for problem in out["problems"][:10]:
        print(f"    {problem}")
    print(
        f"  env: git {env['git']['sha']} dirty={env['git']['dirty']}  python {env['python']}  "
        f"numpy {env['numpy']}  blas {env['blas']} threads=1  nproc {env['nproc']}  "
        f"{env['cpu_model']}"
    )
    print(
        "  host calibration (ms, at start -> end; recorded, not gated): "
        + ", ".join(
            f"{k} {rec['calibration_start_ms'][k]:.3f} -> {rec['calibration_end_ms'][k]:.3f}"
            for k in REFERENCE_MS
        )
    )
    if "probe_ms" in out:
        print(
            f"  host probes ({out['probe_kernel']} kernel): {len(out['probe_ms'])} between "
            f"sessions, median {statistics.median(out['probe_ms']):.3f} ms "
            f"(reference {REFERENCE_MS[out['probe_kernel']]} ms)"
        )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results", default=str(ROOT / ".perfbench_runs" / "results"))
    ap.add_argument("--compare", nargs=2, metavar=("RESULTS_A", "RESULTS_B"))
    args = ap.parse_args(argv)

    if args.compare:
        import compare

        return compare.main(*args.compare)
    if not args.workload:
        ap.error("--workload or --compare is required")
    if not (ROOT / "src" / "ipsim" / "cli.py").is_file():
        print(f"error: no ipsim sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    try:
        for name in names:
            rec = run_workload(name, args.seed, args.seconds, bool(args.trace), Path(args.results))
            print_record(rec)
            records.append(rec)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": m for r in records for k, m in r["metrics"].items()}
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in records),
                "attempted": sum(r["attempted"] for r in records),
                "failed": sum(r["failed"] for r in records),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
