"""One workload process of the benchmark; run.py starts each in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --mode setup|measure|trace
                                --seconds S --work-dir DIR [--spans FILE]

setup    set up, run the first session, report setup_s and exit.
measure  set up, then run experiments back to back (one closed-loop caller)
         for S seconds; time each experiment and each session from outside.
trace    set up under the tracer, run a fixed set of sessions untraced and
         then the same set traced; report per-layer metrics.

The process pins itself to one CPU, so that its sessions and its host-speed
probes (hostspeed.py) run on the same vCPU. Times are the process's CPU
time, with wall time recorded beside them. setup_s is timed from the first
statement of this file, before ``import ipsim``, to the return of the first
session. Every time is reported raw and scaled by the host-speed probes
taken next to it. The last line of standard output is one JSON object.
"""

import os
from time import perf_counter, process_time

os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
T0, T0_CPU = perf_counter(), process_time()

import argparse  # noqa: E402
import bisect  # noqa: E402
import gzip  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import tracer as tr  # noqa: E402
from hostspeed import REFERENCE_MS, REPEATS, CalibrationProcess  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED_STRIDE = 1 << 32  # experiment i of a run uses seed + i * SEED_STRIDE
TAIL_BLOCK = 100  # sessions per block of the tail estimate
PROBE_EVERY_S = 0.05  # least time between two host-speed probes while measuring


class SessionTimer:
    """Times every ``run_one`` call of one ``*Config`` class from outside.

    Once ``host`` is set, it also probes the host speed with the ``kind``
    kernel after a session whenever PROBE_EVERY_S has passed since the last
    probe. ``readings`` holds (sessions timed before the probe, reading in
    ms); ``probe_s`` sums the wall time the probes took. They run in the
    calibration process, so they cost the workload process no CPU time.
    """

    def __init__(self, cls):
        self.walls: list[float] = []  # wall seconds, recorded
        self.cpus: list[float] = []  # process CPU seconds, measured
        self.first_return: tuple[float, float] | None = None  # (wall, CPU) clock
        self.host = None
        self.kind = ""
        self.readings: list[tuple[int, float]] = []
        self.probe_s = 0.0
        self._last_probe = 0.0
        inner = cls.__dict__["run_one"]

        def run_one(*args, **kwargs):
            start, cpu = perf_counter(), process_time()
            res = inner(*args, **kwargs)
            end, cpu_end = perf_counter(), process_time()
            self.walls.append(end - start)
            self.cpus.append(cpu_end - cpu)
            if self.first_return is None:
                self.first_return = (end, cpu_end)
            if self.host is not None and end - self._last_probe >= PROBE_EVERY_S:
                self.probe()
            return res

        cls.run_one = run_one

    def probe(self):
        start = perf_counter()
        self.readings.append((len(self.walls), self.host.time(self.kind)))
        self._last_probe = perf_counter()
        self.probe_s += self._last_probe - start

    def factors(self, first: int, stop: int) -> list[float]:
        """Scale factor of each session in [first, stop): the kernel's
        REFERENCE_MS over the mean of the probes just before and after it."""
        counts = [c for c, _ in self.readings]
        values = [v for _, v in self.readings]
        out = []
        for i in range(first, stop):
            k = bisect.bisect_right(counts, i) - 1
            after = values[min(k + 1, len(values) - 1)]
            out.append(2 * REFERENCE_MS[self.kind] / (values[k] + after))
        return out


def check(w, report, results) -> list[str]:
    """Output checks on one experiment's report; returns the problems found."""
    problems = []
    expected = report.formula_comparison["expected"]
    observed = report.formula_comparison["observed"]
    if not expected:
        problems.append("formula-comparison block is empty")
    for key, value in expected.items():
        got = observed.get(key)
        same = abs(got - value) <= 1e-12 if isinstance(value, float) else got == value
        if not same:
            problems.append(f"formula {key}: observed {got} != expected {value}")
    upper = report.rates["accept_and_valid"]["wilson95"][1]
    if upper < 1 - w.delta:
        problems.append(f"honest accept_and_valid Wilson-95 upper {upper:.4f} < 1 - delta")
    return problems


class Runner:
    """Runs experiments through the CLI entry point and checks their reports."""

    def __init__(self, w, cli, work_dir: Path):
        self.w = w
        self.cli = cli
        self.work_dir = work_dir
        self.attempted = 0
        self.failed = 0
        self.valid = 0
        self.problems: list[str] = []
        self.report_sha256: dict[str, str] = {}

    def experiment(self, seed: int, trials: int):
        """One ``ipsim <protocol> --trials N --seed S --out DIR`` equivalent.

        Returns (CPU seconds, wall seconds, results, report.json bytes), or
        None when the experiment raised; a raise fails every session of it.
        """
        w, cli = self.w, self.cli
        cfg = cli.ExperimentConfig(
            protocol=w.protocol, trials=trials, seed=seed, mode=w.mode, protocol_keys=dict(w.keys)
        )
        self.attempted += trials
        start, cpu = perf_counter(), process_time()
        try:
            report, results = cli.run_experiment(cfg)
            cli.emit_report(report, results, str(self.work_dir))
        except Exception:  # noqa: BLE001 - boundary: a raise is a counted failure
            self.failed += trials
            self.problems.append(f"seed {seed}: " + traceback.format_exc(limit=4))
            return None
        wall, cpu = perf_counter() - start, process_time() - cpu
        body = (self.work_dir / "report.json").read_bytes()
        self.report_sha256[f"trials={trials} seed={seed}"] = hashlib.sha256(body).hexdigest()
        problems = check(w, report, results)
        bad_copies = sum(r.peak_live_copies > 1 for r in results) if w.quantum else 0
        # a failed report check fails every session in it; a copy breach fails its session
        self.failed += trials if problems else bad_copies
        if bad_copies:
            problems.append(f"{bad_copies} sessions held more than one live copy")
        self.problems.extend(f"seed {seed}: {p}" for p in problems)
        self.valid += report.rates["accept_and_valid"]["count"]
        return cpu, wall, results, len(body)

    def pooled_check(self):
        _, hi = self.cli.harness.wilson_interval(self.valid, self.attempted)
        if hi < 1 - self.w.delta:
            self.problems.append(f"pooled accept_and_valid Wilson-95 upper {hi:.4f} < 1 - delta")
            self.failed = max(self.failed, 1)


def tail(walls_ms: list[float]) -> tuple[float, float, int]:
    """(value, percentile, sessions above): the highest percentile with at
    least ten sessions above it, never below the median."""
    xs = sorted(walls_ms)
    n = len(xs)
    idx = n - 11
    if idx < (n - 1) // 2:
        return statistics.median(xs), 50.0, n // 2
    return xs[idx], 100.0 * (idx + 1) / n, n - idx - 1


def block_tail(experiments_ms: list[list[float]]) -> tuple[float, float, int, int]:
    """(value, percentile, sessions above, blocks): ``tail`` over blocks of
    TAIL_BLOCK consecutive sessions (a shorter remainder joins the last
    block), median over the blocks. A run of 2000 three-millisecond sessions
    would otherwise report its 99.5th percentile, and even a 200-session p95
    moves with how often the host preempts the workload's vCPU."""
    xs = [x for ms in experiments_ms for x in ms]
    blocks = [xs[i : i + TAIL_BLOCK] for i in range(0, len(xs), TAIL_BLOCK)]
    if len(blocks) > 1 and len(blocks[-1]) < TAIL_BLOCK:
        blocks[-2].extend(blocks.pop())
    tails = [tail(b) for b in blocks]
    return (
        statistics.median(t[0] for t in tails),
        statistics.median(t[1] for t in tails),
        int(statistics.median(t[2] for t in tails)),
        len(blocks),
    )


def numpy_record() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"numpy": np.__version__, "blas": blas_name}


def measure(args, w, timer, runner, out):
    """Experiments back to back for ``args.seconds``. Each session's CPU
    time is scaled by the host probes around it, each experiment's CPU time
    by the median factor of its sessions."""
    timer.probe()
    cpus, walls, sessions, session_walls, factors = [], [], [], [], []
    loop_start = perf_counter()
    i = 0
    while True:
        first, probed = len(timer.walls), timer.probe_s
        done = runner.experiment(args.seed + i * SEED_STRIDE, w.trials_per_experiment)
        i += 1
        if done is not None:
            cpus.append(done[0])
            walls.append(done[1] - (timer.probe_s - probed))
            sessions.append([x * 1e3 for x in timer.cpus[first:]])
            session_walls.append([x * 1e3 for x in timer.walls[first:]])
            factors.append(timer.factors(first, len(timer.walls)))
        if perf_counter() - loop_start >= args.seconds:
            break
    timer.probe()
    timer.host = None
    out["experiments"] = i
    out["probe_ms"] = [v for _, v in timer.readings]
    out["probe_kernel"] = timer.kind
    out["probe_wall_s"] = timer.probe_s
    out["experiment_cpu_s"] = cpus
    out["experiment_wall_s"] = walls
    out["sessions_ms_raw"] = sessions
    out["sessions_wall_ms"] = session_walls
    if cpus:
        n = w.trials_per_experiment
        scaled = [[x * f for x, f in zip(ms, fs)] for ms, fs in zip(sessions, factors)]
        raw_ms = [x for ms in sessions for x in ms]
        scaled_ms = [x for ms in scaled for x in ms]
        out["sessions_per_s_raw"] = statistics.median(n / x for x in cpus)
        out["sessions_per_s"] = statistics.median(
            n / (x * statistics.median(fs)) for x, fs in zip(cpus, factors)
        )
        out["sessions_per_wall_s"] = statistics.median(n / x for x in walls)
        out["session_p50_wall_ms"] = statistics.median(x for ms in session_walls for x in ms)
        out["session_p50_ms_raw"] = statistics.median(raw_ms)
        out["session_p50_ms"] = statistics.median(scaled_ms)
        out["session_tail_ms_raw"] = block_tail(sessions)[0]
        (
            out["session_tail_ms"],
            out["tail_percentile"],
            out["tail_sessions_above"],
            out["tail_blocks"],
        ) = block_tail(scaled)
        out["sessions_timed"] = len(scaled_ms)
    runner.pooled_check()


def trace(args, w, timer, runner, warm, out):
    """The fixed trace set at the workload seed, untraced and then traced."""
    first = len(timer.walls)
    runner.experiment(args.seed, w.trace_trials)
    untraced_ms = [x * 1e3 for x in timer.cpus[first:]]
    tracer = tr.Tracer(keep_sessions=2)
    patches = tr.install(tracer)
    try:
        first = len(timer.walls)
        done = runner.experiment(args.seed, w.trace_trials)
    finally:
        tr.uninstall(patches)
    traced_ms = [x * 1e3 for x in timer.cpus[first:]]
    if done is None or tracer.stack or tracer.opened != tracer.closed:
        runner.problems.append("traced run did not complete with every span closed")
        runner.failed = max(runner.failed, 1)
        return
    _, _, results, nbytes = done
    out["layers"] = tr.layer_metrics(tracer, results, nbytes, warm.cold_ms)
    out["untraced_p50_ms"] = statistics.median(untraced_ms)
    out["traced_p50_ms"] = statistics.median(traced_ms)
    out["spans_stored"] = len(tracer.span_id)
    if args.spans:
        with gzip.open(args.spans, "wt") as fh:
            json.dump(tracer.spans_dump(), fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload]
    work_dir = Path(args.work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)

    import ipsim  # noqa: F401  (set-up starts at T0, before this import)
    from ipsim import cli

    module, cls_name = w.config_class.split(".")
    timer = SessionTimer(getattr(getattr(ipsim, module), cls_name))
    runner = Runner(w, cli, work_dir)
    out = {"workload": w.name, "seed": args.seed, "mode": args.mode}

    warm = tr.Tracer(keep_sessions=0)  # the traced run's set-up records the cold enumeration
    patches = tr.install(warm) if args.mode == "trace" else []
    try:
        runner.experiment(args.seed, 1)
    finally:
        tr.uninstall(patches)
    if timer.first_return is None:
        print(json.dumps({"error": "set-up session did not return", "problems": runner.problems}))
        return 1
    out["cpu"] = sorted(os.sched_getaffinity(0))
    out["setup_wall_s"] = timer.first_return[0] - T0
    out["setup_s_raw"] = timer.first_return[1] - T0_CPU
    out["setup_sessions"] = len(timer.walls)

    if args.mode == "trace":
        trace(args, w, timer, runner, warm, out)
    else:
        with CalibrationProcess() as host:
            out["setup_cal_ms"] = host.time(w.probe, REPEATS)
            out["setup_s"] = out["setup_s_raw"] * REFERENCE_MS[w.probe] / out["setup_cal_ms"]
            if args.mode == "measure":
                timer.host, timer.kind = host, w.probe
                measure(args, w, timer, runner, out)

    out.update(
        attempted=runner.attempted,
        failed=runner.failed,
        problems=runner.problems,
        report_sha256=runner.report_sha256,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **numpy_record(),
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
