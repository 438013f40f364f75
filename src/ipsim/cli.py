"""Experiment runner: config parsing, protocol dispatch, batch execution,
report and transcript emission.

Usage: ipsim <protocol> [--config FILE] [--trials N] [--seed S]
             [--mode ideal|sampled] [--out DIR] [--transcripts] [key=value ...]

Config files are flat key=value lines; command-line flags override file
values, which override defaults. Exit codes: 0 done, 2 config error,
3 invariant violation (memory policy / channel type / formula mismatch).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, harness, lowrank_ip, purity_ip, stab_ip, stream_ip, tomo_ip
from .harness import (
    ChannelTypeError,
    MemoryPolicyError,
    build_nogo_distinguisher,
    derive_rng,
    wilson_interval,
)


class ConfigError(ValueError):
    pass


class FormulaMismatchError(RuntimeError):
    """A trial's observed parameter differs from its closed form (an
    invariant violation, exit code 3, never a verdict)."""


def _parse_value(raw: str):
    low = raw.strip()
    if low.lower() in ("true", "false"):
        return low.lower() == "true"
    try:
        return int(low)
    except ValueError:
        pass
    try:
        return float(low)
    except ValueError:
        pass
    return low


def parse_config_file(path: str) -> dict:
    out = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"malformed config line: {line!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = _parse_value(value)
    return out


@dataclass
class ExperimentConfig:
    protocol: str
    trials: int = 10
    seed: int = 0
    mode: str = "ideal"
    output_dir: str | None = None
    transcripts: bool = False
    protocol_keys: dict = field(default_factory=dict)

    def echo(self) -> dict:
        base = {
            "protocol": self.protocol,
            "trials": self.trials,
            "seed": self.seed,
            "mode": self.mode,
            "transcripts": self.transcripts,
        }
        base.update({k: self.protocol_keys[k] for k in sorted(self.protocol_keys)})
        return base


# ---------------------------------------------------------------------------
# Protocol adapters
# ---------------------------------------------------------------------------


class _BaseAdapter:
    """One protocol's keys, instance sampling, session runner and judge."""

    allowed_keys: dict = {}
    name = "base"

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        for key in cfg.protocol_keys:
            if key not in self.allowed_keys:
                raise ConfigError(f"unknown key {key!r} for protocol {self.name}")
        for key, value in cfg.protocol_keys.items():
            expected = self.allowed_keys[key]
            if expected is float and isinstance(value, int):
                value = float(value)
            if not isinstance(value, expected):
                raise ConfigError(f"key {key!r} expects {expected.__name__}")
        self.keys = dict(cfg.protocol_keys)

    def key(self, name, default):
        return self.keys.get(name, default)

    def run_trial(self, t: int):
        raise NotImplementedError

    def formula_expected(self) -> dict:
        return {}


class PurityAdapter(_BaseAdapter):
    name = "purity"
    allowed_keys = {
        "d": int,
        "delta": float,
        "mask_ensemble": str,
        "adversary": str,
        "instance": str,
    }

    def __init__(self, cfg):
        super().__init__(cfg)
        self.pc = purity_ip.PurityConfig(
            d=self.key("d", 8),
            delta=self.key("delta", 1 / 3),
            mask_ensemble=self.key("mask_ensemble", "haar"),
            record_transcript=cfg.transcripts,
        )
        adv = self.key("adversary", "honest")
        self.prover = (
            purity_ip.HonestSwapProver() if adv == "honest" else purity_ip.ADVERSARIES[adv]()
        )
        self.instance = self.key("instance", "accept")

    def run_trial(self, t):
        rng = derive_rng(self.cfg.seed, "instance", t)
        hidden = self.pc.sample_instance(self.instance, rng)
        seed = int(derive_rng(self.cfg.seed, "trial", t).integers(0, 2**63 - 1))
        res = self.pc.run_one(hidden, self.prover, seed)
        valid = self.pc.judge(res.output, hidden) if res.accepted else None
        return res, valid

    def formula_expected(self):
        p = self.pc.params()
        return {"N": p.N, "m": p.m, "delta_tilde": p.delta_tilde}


class TomoAdapter(_BaseAdapter):
    name = "tomo"
    allowed_keys = {
        "d": int,
        "epsilon": float,
        "delta": float,
        "rank_k": int,
        "adversary": str,
        "c_v": float,
        "c_p": float,
    }

    def __init__(self, cfg):
        super().__init__(cfg)
        self.tc = tomo_ip.TomoConfig(
            d=self.key("d", 4),
            epsilon=self.key("epsilon", 0.5),
            delta=self.key("delta", 1 / 3),
            mode=cfg.mode,
            rank_k=self.keys.get("rank_k"),
            c_v=self.key("c_v", 1.0),
            c_p=self.key("c_p", 1.0),
            record_transcript=cfg.transcripts,
        )
        adv = self.key("adversary", "honest")
        self.prover = (
            tomo_ip.HonestTomographyProver() if adv == "honest" else tomo_ip.ADVERSARIES[adv]()
        )

    def run_trial(self, t):
        rng = derive_rng(self.cfg.seed, "instance", t)
        hidden = self.tc.sample_instance("learning", rng)
        seed = int(derive_rng(self.cfg.seed, "trial", t).integers(0, 2**63 - 1))
        res = self.tc.run_one(hidden, self.prover, seed)
        valid = self.tc.judge(res.output, hidden) if res.accepted else None
        return res, valid

    def formula_expected(self):
        p = self.tc.params()
        return {
            "verifier_budget": p.verifier_query_budget(),
            "prover_budget": p.prover_query_budget(),
            "prover_target": p.prover_target,
        }


class LowRankAdapter(_BaseAdapter):
    name = "lowrank"
    allowed_keys = {
        "d": int,
        "k": int,
        "epsilon": float,
        "delta": float,
        "variant": str,
        "adversary": str,
    }

    def __init__(self, cfg):
        super().__init__(cfg)
        self.lc = lowrank_ip.LowRankConfig(
            d=self.key("d", 4),
            k=self.key("k", 1),
            epsilon=self.key("epsilon", 0.6),
            delta=self.key("delta", 1 / 3),
            mode=cfg.mode,
            variant=self.key("variant", "standard"),
            record_transcript=cfg.transcripts,
        )
        adv = self.key("adversary", "honest")
        self.prover = (
            lowrank_ip.HonestSpectralProver()
            if adv == "honest"
            else lowrank_ip.ADVERSARIES[adv]()
        )

    def run_trial(self, t):
        rng = derive_rng(self.cfg.seed, "instance", t)
        hidden = self.lc.sample_instance("learning", rng)
        seed = int(derive_rng(self.cfg.seed, "trial", t).integers(0, 2**63 - 1))
        res = self.lc.run_one(hidden, self.prover, seed)
        valid = self.lc.judge(res.output, hidden) if res.accepted else None
        return res, valid

    def formula_expected(self):
        p = self.lc.params()
        return {
            "eps1": p.eps1,
            "eps2": p.eps2,
            "f": p.f,
            "delta_tilde": p.delta_tilde,
            "purity_pairs_budget": p.purity_pairs_budget(),
            "topk_budget": p.topk_budget(),
            "prover_budget": p.prover_budget(),
            "basis_shots": p.basis_shots(),
        }


class StabAdapter(_BaseAdapter):
    name = "stab"
    allowed_keys = {"n": int, "epsilon": float, "delta": float, "adversary": str}

    def __init__(self, cfg):
        super().__init__(cfg)
        self.sc = stab_ip.StabConfig(
            n=self.key("n", 3),
            epsilon=self.key("epsilon", 0.4),
            delta=self.key("delta", 1 / 3),
            mode=cfg.mode,
            record_transcript=cfg.transcripts,
        )
        adv = self.key("adversary", "honest")
        self.prover = (
            stab_ip.HonestBruteForceProver() if adv == "honest" else stab_ip.ADVERSARIES[adv]()
        )

    def run_trial(self, t):
        rng = derive_rng(self.cfg.seed, "instance", t)
        hidden = self.sc.sample_instance("learning", rng)
        seed = int(derive_rng(self.cfg.seed, "trial", t).integers(0, 2**63 - 1))
        res = self.sc.run_one(hidden, self.prover, seed)
        valid = self.sc.judge(res.output, hidden) if res.accepted else None
        return res, valid

    def formula_expected(self):
        p = self.sc.params()
        return {
            "eps1": p.eps1,
            "eps2": p.eps2,
            "eps3": p.eps3,
            "loss_shots": p.loss_shots(),
            "a3_samples": p.a3_samples(),
        }


class UniformityAdapter(_BaseAdapter):
    name = "uniformity"
    allowed_keys = {
        "k": int,
        "epsilon": float,
        "degree_cap": int,
        "distribution": str,
        "support_fraction": float,
        "adversary": str,
        "allow_small_epsilon": bool,
    }

    def __init__(self, cfg):
        super().__init__(cfg)
        self.uc = stream_ip.UniformityConfig(
            k=self.key("k", 1 << 16),
            epsilon=self.key("epsilon", 0.75),
            degree_cap=self.key("degree_cap", 32),
            distribution=self.key("distribution", "uniform"),
            support_fraction=self.key("support_fraction", 1 / 8),
            allow_small_epsilon=self.key("allow_small_epsilon", False),
            record_transcript=cfg.transcripts,
        )
        self.adv = self.key("adversary", "honest")

    def run_trial(self, t):
        hidden = self.uc.make_distribution(self.uc.distribution)
        prover = self.uc.make_prover("honest" if self.adv == "honest" else self.adv)
        seed = int(derive_rng(self.cfg.seed, "trial", t).integers(0, 2**63 - 1))
        res = self.uc.run_one(hidden, prover, seed)
        valid = self.uc.judge(res.output, hidden) if res.accepted else None
        return res, valid

    def formula_expected(self):
        p = self.uc.params()
        out = {"n": p.n, "tau": p.tau, "threshold_count": p.threshold_count, "b": p.b}
        if p.decision_statistic == "collisions":
            # tau <= 0: the collision threshold is the one that decides
            out["collision_threshold"] = p.collision_threshold
        return out


class NogoAdapter(_BaseAdapter):
    """Distinguisher built from the purity IP, measured on accept/reject."""

    name = "nogo"
    allowed_keys = {"d": int, "delta": float, "instance": str}

    def __init__(self, cfg):
        super().__init__(cfg)
        self.pc = purity_ip.PurityConfig(
            d=self.key("d", 8), delta=self.key("delta", 1 / 3)
        )
        self.instance = self.key("instance", "accept")
        self.distinguisher = build_nogo_distinguisher(
            self.pc.task(), self.pc.run_one, purity_ip.HonestSwapProver()
        )

    def run_trial(self, t):
        rng = derive_rng(self.cfg.seed, "instance", t)
        hidden = self.pc.sample_instance(self.instance, rng)
        seed = int(derive_rng(self.cfg.seed, "trial", t).integers(0, 2**63 - 1))
        answer, res = self.distinguisher.run(hidden, seed)
        correct = answer == ("accept" if self.instance == "accept" else "reject")
        return res, correct

    def formula_expected(self):
        p = self.pc.params()
        return {"N": p.N, "m": p.m}


class TrivialAdapter(_BaseAdapter):
    """Trivial validation IP on realizable stabilizer learning at small n."""

    name = "trivial"
    allowed_keys = {"n": int, "epsilon": float, "delta": float, "checker": str, "adversary": str}

    def __init__(self, cfg):
        super().__init__(cfg)
        self.n = self.key("n", 2)
        self.epsilon = self.key("epsilon", 0.3)
        self.delta = self.key("delta", 1 / 3)
        self.checker = self.key("checker", "sampled")
        self.adv = self.key("adversary", "honest")

    def _bundle(self):
        return make_trivial_stab_ip(self.n, self.epsilon, self.delta, self.checker, self.adv)

    def run_trial(self, t):
        rng = derive_rng(self.cfg.seed, "instance", t)
        states = stab_ip.enumerate_stabilizers(self.n)
        hidden = states[int(rng.integers(0, len(states)))].dense
        seed = int(derive_rng(self.cfg.seed, "trial", t).integers(0, 2**63 - 1))
        verifier, prover = self._bundle()
        oracle_v = harness.CopyOracle(hidden)
        oracle_p = harness.CopyOracle(hidden, ideal_access=True)
        channel = harness.Channel("quantum", record_transcript=self.cfg.transcripts)
        res = harness.run_session(verifier, prover, (oracle_v, oracle_p), channel, seed)
        if res.accepted:
            loss = 1.0 - float(
                np.abs(np.vdot(res.output.dense.amplitudes, hidden.amplitudes)) ** 2
            )
            valid = loss <= self.epsilon + 1e-9
        else:
            valid = None
        return res, valid


def make_trivial_stab_ip(n: int, epsilon: float, delta: float, checker: str, adversary: str):
    """Obs-2.5-style IP: prover solves realizable stabilizer learning, the
    verifier runs a stabilizer-fidelity decide-valid subroutine."""
    import math

    shots = math.ceil(math.log(2 / delta) / (2 * (epsilon / 2) ** 2))

    def check_sampled(oracle_v, hyp: stab_ip.StabilizerStateDesc, rng):
        state = oracle_v.query(kind="decide-valid").consume()
        oracle_v.charge_accounting(shots - 1, "decide-valid")
        fid = float(np.real(np.vdot(hyp.projector(), state)))
        fid = min(max(fid, 0.0), 1.0)
        l_hat = 1 - rng.binomial(shots, fid) / shots
        return l_hat <= epsilon / 2

    def check_ideal(oracle_v, hyp, rng):
        oracle_v.charge_accounting(shots, "decide-valid-accounting")
        fid = float(np.real(np.vdot(hyp.projector(), _dense(oracle_v.judge_peek()))))
        ok = (1 - fid) <= epsilon / 2
        return ok if rng.random() >= delta / 2 else not ok

    def check_exact(oracle_v, hyp, rng):
        fid = float(np.real(np.vdot(hyp.projector(), _dense(oracle_v.judge_peek()))))
        return (1 - fid) <= epsilon / 2

    def _dense(psi):
        amps = psi.amplitudes
        return np.outer(amps, amps.conj())

    checks = {"sampled": check_sampled, "ideal": check_ideal, "exact-test": check_exact}
    dv = harness.DecideValid(
        check=checks[checker], failure_prob=delta, description=f"stab-fidelity-{checker}"
    )

    class _Solver(harness.ProverStrategy):
        name = "brute-force-solver"
        honest = True

        def solve(self, oracle_p, rng):
            psi = oracle_p.ideal_peek()
            _, best = stab_ip.optimal_stab_loss(psi)
            return stab_ip.enumerate_stabilizers(n)[best]

    class _Garbage(harness.ProverStrategy):
        name = "garbage"
        honest = False

        def solve(self, oracle_p, rng):
            states = stab_ip.enumerate_stabilizers(n)
            fids = stab_ip.all_fidelities(oracle_p.ideal_peek())
            return states[int(np.argmin(fids))]

    prover = _Solver() if adversary == "honest" else _Garbage()
    verifier, _ = harness.trivial_validation_ip(dv, prover)
    return verifier, prover


ADAPTERS = {
    cls.name: cls
    for cls in (
        PurityAdapter,
        TomoAdapter,
        LowRankAdapter,
        StabAdapter,
        UniformityAdapter,
        NogoAdapter,
        TrivialAdapter,
    )
}


# ---------------------------------------------------------------------------
# Report assembly and emission
# ---------------------------------------------------------------------------


@dataclass
class Report:
    config: dict
    rows: list
    rates: dict
    meter_aggregates: dict
    channel_aggregates: dict
    formula_comparison: dict
    version: str
    wall_time_s: float
    transcript_digests: list = field(default_factory=list)

    def body(self, include_timing: bool = False) -> dict:
        out = {
            "config": self.config,
            "version": self.version,
            "rows": self.rows,
            "rates": self.rates,
            "meter_aggregates": self.meter_aggregates,
            "channel_aggregates": self.channel_aggregates,
            "formula_comparison": self.formula_comparison,
            "transcript_digests": self.transcript_digests,
        }
        if include_timing:
            out["wall_time_s"] = self.wall_time_s
        return out

    def to_json(self, include_timing: bool = False) -> str:
        return json.dumps(self.body(include_timing), sort_keys=True, indent=1)


def _aggregate(values):
    if not values:
        return {"min": 0, "mean": 0.0, "max": 0}
    return {
        "min": int(np.min(values)),
        "mean": float(np.mean(values)),
        "max": int(np.max(values)),
    }


def run_experiment(config: ExperimentConfig) -> Report:
    """Dispatches, runs every trial with a derived seed, assembles the report.

    Raises ConfigError for bad configs and FormulaMismatchError when any
    trial's observed parameters differ from their closed forms;
    MemoryPolicyError/ChannelTypeError propagate. The CLI maps the last three
    to exit code 3.
    """
    if config.protocol not in ADAPTERS:
        raise ConfigError(f"unknown protocol {config.protocol!r}")
    if config.trials < 1:
        raise ConfigError("trials >= 1 required")
    if config.mode not in ("ideal", "sampled"):
        raise ConfigError("mode must be ideal or sampled")
    adapter = ADAPTERS[config.protocol](config)
    t0 = time.perf_counter()
    rows = []
    results = []
    av = ai = ab = 0
    for t in range(config.trials):
        res, valid = adapter.run_trial(t)
        results.append(res)
        if not res.accepted:
            ab += 1
        elif valid:
            av += 1
        else:
            ai += 1
        ch = res.channel_counters
        rows.append(
            {
                "trial": t,
                "verdict": "accepted" if res.accepted else "aborted",
                "valid": valid,
                "verifier_queries": res.verifier_queries,
                "prover_queries": res.prover_queries,
                "bits_c": ch["bits_v_to_p"] + ch["bits_p_to_v"],
                "qudits_q": ch["qudits_v_to_p"] + ch["qudits_p_to_v"],
                "seed": res.seed,
            }
        )
    wall = time.perf_counter() - t0
    trials = config.trials
    rates = {}
    for label, count in (
        ("accept_and_valid", av),
        ("accept_and_invalid", ai),
        ("abort", ab),
    ):
        lo, hi = wilson_interval(count, trials)
        rates[label] = {"count": count, "rate": count / trials, "wilson95": [lo, hi]}
    expected = adapter.formula_expected()
    observed = [{key: r.extras[key] for key in expected} for r in results]
    for t, trial_observed in enumerate(observed):
        for key, value in expected.items():
            got = trial_observed[key]
            mismatch = abs(got - value) > 1e-12 if isinstance(value, float) else got != value
            if mismatch:
                raise FormulaMismatchError(f"formula mismatch for {key} in trial {t}: {got} != {value}")
    digests = []
    if config.transcripts:
        import hashlib

        digests = [
            {
                "trial": t,
                "lines": len(r.transcript_lines),
                "sha256": hashlib.sha256("\n".join(r.transcript_lines).encode()).hexdigest(),
            }
            for t, r in enumerate(results)
        ]
    return Report(
        config=config.echo(),
        rows=rows,
        rates=rates,
        meter_aggregates={
            "verifier": _aggregate([r.verifier_queries for r in results]),
            "prover": _aggregate([r.prover_queries for r in results]),
        },
        channel_aggregates={
            key: _aggregate([r.channel_counters[key] for r in results])
            for key in ("bits_v_to_p", "bits_p_to_v", "qudits_v_to_p", "qudits_p_to_v")
        },
        formula_comparison={"expected": expected, "observed": observed[0]},
        version=__version__,
        wall_time_s=wall,
        transcript_digests=digests,
    ), results


def emit_report(report: Report, results, out_dir: str, transcripts: bool = False) -> list[str]:
    """Writes report.json (deterministic; timing excluded) and trials.csv."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    report_path = out / "report.json"
    report_path.write_text(report.to_json(include_timing=False) + "\n")
    written.append(str(report_path))
    csv_path = out / "trials.csv"
    header = "trial,verdict,valid,verifier_queries,prover_queries,bits_c,qudits_q,seed"
    lines = [header]
    for row in report.rows:
        lines.append(
            ",".join(
                str(row[k])
                for k in (
                    "trial",
                    "verdict",
                    "valid",
                    "verifier_queries",
                    "prover_queries",
                    "bits_c",
                    "qudits_q",
                    "seed",
                )
            )
        )
    csv_path.write_text("\n".join(lines) + "\n")
    written.append(str(csv_path))
    if transcripts:
        tdir = out / "transcripts"
        tdir.mkdir(exist_ok=True)
        for t, res in enumerate(results):
            path = tdir / f"trial_{t:05d}.jsonl"
            path.write_text("\n".join(res.transcript_lines) + "\n")
            written.append(str(path))
    return written


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="ipsim", description=__doc__)
    parser.add_argument("protocol", choices=sorted(ADAPTERS))
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--trials", type=int)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--mode", choices=["ideal", "sampled"])
    parser.add_argument("--out", help="output directory for report files")
    parser.add_argument("--transcripts", action="store_true")
    parser.add_argument("overrides", nargs="*", help="key=value overrides")
    args = parser.parse_intermixed_args(argv)

    try:
        merged: dict = {}
        if args.config:
            merged.update(parse_config_file(args.config))
        for item in args.overrides:
            if "=" not in item:
                raise ConfigError(f"override {item!r} is not key=value")
            key, _, value = item.partition("=")
            merged[key] = _parse_value(value)
        reserved = {}
        for key in ("trials", "seed", "mode", "transcripts"):
            if key in merged:
                reserved[key] = merged.pop(key)
        config = ExperimentConfig(
            protocol=args.protocol,
            trials=args.trials if args.trials is not None else int(reserved.get("trials", 10)),
            seed=args.seed if args.seed is not None else int(reserved.get("seed", 0)),
            mode=args.mode or str(reserved.get("mode", "ideal")),
            transcripts=args.transcripts or bool(reserved.get("transcripts", False)),
            output_dir=args.out,
            protocol_keys=merged,
        )
        report, results = run_experiment(config)
    except (ConfigError, ValueError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except (MemoryPolicyError, ChannelTypeError, FormulaMismatchError) as err:
        print(f"invariant violation: {err}", file=sys.stderr)
        return 3
    summary = {
        label: round(block["rate"], 4) for label, block in report.rates.items()
    }
    print(f"ipsim {config.protocol}: {config.trials} trials, rates {summary}")
    print(f"wall time: {report.wall_time_s:.2f}s")
    if args.out:
        for path in emit_report(report, results, args.out, config.transcripts):
            print(f"wrote {path}")
    else:
        print(report.to_json(include_timing=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
