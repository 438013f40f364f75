"""The benchmark's workloads and its end-to-end metrics.

Each workload is a README-style ``ipsim`` command run with the honest
prover, driven through ``cli.run_experiment`` exactly as the CLI drives it.
The reasons for each choice are in README.md beside this file.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    protocol: str
    keys: dict
    config_class: str  # "<module>.<class>" whose run_one is one session
    trials_per_experiment: int  # one experiment lasts roughly a second
    trace_trials: int  # fixed session count of the traced run
    delta: float  # honest completeness target of the Wilson check
    quantum: bool  # single-copy verifier: peak live copies must stay <= 1
    probe: str  # hostspeed kernel that matches the hot path; scales every time
    mode: str = "ideal"
    why: str = ""


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="uniformity-k65536",
            protocol="uniformity",
            keys={"k": 65536, "epsilon": 0.75},
            config_class="stream_ip.UniformityConfig",
            trials_per_experiment=1,
            trace_trials=3,
            delta=1 / 3,
            quantum=False,
            probe="memory",
            why="sum-check prover and m61 vector kernels take ~95% of a ~1 s session; "
            "no quantum copies",
        ),
        Workload(
            name="purity-d8",
            protocol="purity",
            keys={"d": 8, "delta": 0.3333},
            config_class="purity_ip.PurityConfig",
            trials_per_experiment=25,
            trace_trials=40,
            delta=0.3333,
            quantum=True,
            probe="small_linalg",
            why="quantum copy path (query, with_unitary, send_qudits), Haar masks and SWAP "
            "tests; no m61 code",
        ),
        Workload(
            name="tomo-sampled-d4",
            protocol="tomo",
            keys={"d": 4, "epsilon": 0.5},
            config_class="tomo_ip.TomoConfig",
            trials_per_experiment=4,
            trace_trials=5,
            delta=1 / 3,
            quantum=True,
            probe="python",
            mode="sampled",
            why="~139k single-copy queries per session through delegated_measure; "
            "per-copy bookkeeping with no masking matmul",
        ),
        Workload(
            name="stab-n4",
            protocol="stab",
            keys={"n": 4, "epsilon": 0.4},
            config_class="stab_ip.StabConfig",
            trials_per_experiment=200,
            trace_trials=200,
            delta=1 / 3,
            quantum=True,
            probe="memory",
            why="one-time 36720-state enumeration dominates set-up; ~3 ms sessions expose "
            "per-session harness and CLI overhead",
        ),
    )
}

# name -> (unit, better); bounds live in BENCHMARK.json
END_TO_END = {
    "sessions_per_s": ("1/s", "higher"),
    "session_p50_ms": ("ms", "lower"),
    "session_tail_ms": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_frac": ("ratio", "higher"),
}
