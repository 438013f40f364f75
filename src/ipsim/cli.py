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
import hashlib
import json
import sys
import time
from dataclasses import dataclass, field, fields
from functools import cache
from pathlib import Path
from types import MappingProxyType
from typing import get_type_hints

from . import __version__, harness, lowrank_ip, purity_ip, stab_ip, stream_ip, tomo_ip
from .harness import ChannelTypeError, MemoryPolicyError


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


# Each protocol is its config class, a ``harness.Protocol``. A config takes
# its keys as fields and runs trials through make_prover(name),
# sample_instance(which, rng), run_one(hidden, prover, seed) and
# judge(output, hidden); formula() gives the closed forms every session's
# extras must match. Its trial_keys, with their defaults, pick the prover
# ("adversary") and the instance source ("instance"). What differs between
# protocols a config declares: its ``verifier`` class (a ``harness.Verifier``)
# and its ``provers`` ({"honest": P, **ADVERSARIES}). The rest it inherits,
# and the base places ``run_one`` in each config's own namespace (``nogo``
# defines its own, ``harness.run_distinguisher``): the benchmark reads
# ``cls.__dict__["run_one"]``, ``["sample_instance"]`` and ``["judge"]`` of
# its configs and ``cls.__dict__["run"]`` of their verifiers.
PROTOCOLS = {
    "purity": purity_ip.PurityConfig,
    "tomo": tomo_ip.TomoConfig,
    "lowrank": lowrank_ip.LowRankConfig,
    "stab": stab_ip.StabConfig,
    "uniformity": stream_ip.UniformityConfig,
    "nogo": purity_ip.NogoConfig,
    "trivial": stab_ip.TrivialConfig,
}
RUNNER_FIELDS = ("mode", "record_transcript")  # set from the experiment, never from keys


@cache
def protocol_keys(cls) -> MappingProxyType:
    """Key -> type of one protocol: its config's fields, except the ones the
    runner sets and the ones marked ``metadata={"cli": False}``, plus its
    trial keys. Built once per config class and handed out read-only."""
    hints = get_type_hints(cls)
    keys = {
        f.name: hints[f.name]
        for f in fields(cls)
        if f.name not in RUNNER_FIELDS and f.metadata.get("cli", True)
    }
    keys.update(dict.fromkeys(cls.trial_keys, str))
    return MappingProxyType(keys)


def check_type(key: str, value, expected):
    """Raises ConfigError unless ``value`` is of type ``expected``: a bool
    only where a bool is expected, and an int also where a float is."""
    accepted = (int, float) if expected is float else expected
    if isinstance(value, bool) != (expected is bool) or not isinstance(value, accepted):
        raise ConfigError(f"key {key!r} expects {getattr(expected, '__name__', expected)}")


def build_protocol(config: ExperimentConfig):
    """The protocol's config, its prover and its instance source."""
    if config.protocol not in PROTOCOLS:
        raise ConfigError(f"unknown protocol {config.protocol!r}")
    cls = PROTOCOLS[config.protocol]
    keys = protocol_keys(cls)
    for key, value in config.protocol_keys.items():
        if key not in keys:
            raise ConfigError(
                f"unknown key {key!r} for protocol {config.protocol}; "
                f"allowed: {', '.join(sorted(keys))}"
            )
        check_type(key, value, keys[key])
    settings = dict(config.protocol_keys)
    trial = {key: settings.pop(key, default) for key, default in cls.trial_keys.items()}
    if any(f.name == "mode" for f in fields(cls)):
        settings["mode"] = config.mode
    elif config.mode != "ideal":
        raise ConfigError(f"protocol {config.protocol} has no mode; --mode {config.mode} does not apply")
    protocol = cls(**settings, record_transcript=config.transcripts)
    prover = protocol.make_prover(trial.get("adversary", "honest"))
    # without an instance key a config samples its one source ("learning"
    # names it for tomo, lowrank and stab; uniformity uses its distribution)
    return protocol, prover, trial.get("instance", "learning")


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

    def to_json(self) -> str:
        """Every field but the wall time, so equal runs give equal bytes."""
        body = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "wall_time_s"}
        return json.dumps(body, sort_keys=True, indent=1)


def _aggregate(values):
    if not values:
        return {"min": 0, "mean": 0.0, "max": 0}
    return {
        "min": int(min(values)),
        "mean": float(sum(values) / len(values)),
        "max": int(max(values)),
    }


def run_experiment(config: ExperimentConfig) -> tuple[Report, list[harness.SessionResult]]:
    """Runs every trial with a derived seed and assembles the report.

    Raises ConfigError (or ValueError) for bad configs and
    FormulaMismatchError when any trial's observed parameters differ from
    their closed forms; MemoryPolicyError/ChannelTypeError propagate. The CLI
    maps the last three to exit code 3.
    """
    if config.mode not in ("ideal", "sampled"):
        raise ConfigError("mode must be ideal or sampled")
    protocol, prover, which = build_protocol(config)
    t0 = time.perf_counter()
    record, results, valids = harness.run_trials(
        protocol.run_one,
        protocol.judge,
        lambda rng: protocol.sample_instance(which, rng),
        prover,
        config.trials,
        config.seed,
        "trial",
    )
    wall = time.perf_counter() - t0
    rows = []
    for t, (res, valid) in enumerate(zip(results, valids)):
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
    expected = protocol.formula()
    observed = [{key: r.extras[key] for key in expected} for r in results]
    for t, trial_observed in enumerate(observed):
        for key, value in expected.items():
            got = trial_observed[key]
            mismatch = abs(got - value) > 1e-12 if isinstance(value, float) else got != value
            if mismatch:
                raise FormulaMismatchError(f"formula mismatch for {key} in trial {t}: {got} != {value}")
    digests = []
    if config.transcripts:
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
        rates=record.rates(correct=protocol.answers_on_abort),
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


CSV_COLUMNS = (
    "trial",
    "verdict",
    "valid",
    "verifier_queries",
    "prover_queries",
    "bits_c",
    "qudits_q",
    "seed",
)


def emit_report(report: Report, results, out_dir: str, transcripts: bool = False) -> list[str]:
    """Writes report.json (deterministic; timing excluded) and trials.csv."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    report_path = out / "report.json"
    report_path.write_text(report.to_json() + "\n")
    written.append(str(report_path))
    csv_path = out / "trials.csv"
    lines = [",".join(CSV_COLUMNS)]
    lines += [",".join(str(row[k]) for k in CSV_COLUMNS) for row in report.rows]
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
    parser.add_argument("protocol", choices=sorted(PROTOCOLS))
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
        hints = get_type_hints(ExperimentConfig)
        for key in ("trials", "seed", "mode", "transcripts"):
            if key in merged:
                reserved[key] = merged.pop(key)
                check_type(key, reserved[key], hints[key])
        config = ExperimentConfig(
            protocol=args.protocol,
            trials=args.trials if args.trials is not None else reserved.get("trials", 10),
            seed=args.seed if args.seed is not None else reserved.get("seed", 0),
            mode=args.mode or reserved.get("mode", "ideal"),
            transcripts=args.transcripts or reserved.get("transcripts", False),
            protocol_keys=merged,
        )
        if args.out:
            try:
                Path(args.out).mkdir(parents=True, exist_ok=True)
            except OSError as err:
                raise ConfigError(f"cannot write --out {args.out}: {err.strerror}") from None
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
        print(report.to_json())
    return 0


if __name__ == "__main__":
    sys.exit(main())
