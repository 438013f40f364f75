"""Protocol infrastructure.

Many-vs-one tasks, copy oracles with query meters, typed channels with
transcripts, the single-copy verifier memory policy, session execution,
Monte-Carlo rate estimation with Wilson intervals, the generic
IP-to-distinguisher transformation, the delegation-channel contract and the
trivial validation IP.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np



class MemoryPolicyError(RuntimeError):
    """The verifier exceeded its live-copy budget. Hard failure, never a verdict."""


class ChannelTypeError(RuntimeError):
    """A qudit payload was pushed through a classical channel."""


class DelegationAbort(Exception):
    """The verifier-side trap check of a delegated measurement fired."""


class ProtocolAbort(Exception):
    """The verifier aborted the interaction (a sound verdict, not an error)."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def derive_rng(seed: int, *labels) -> np.random.Generator:
    """Deterministic per-purpose generator from a session seed and string labels."""
    h = hashlib.sha256(repr((int(seed),) + tuple(labels)).encode()).digest()
    words = tuple(int.from_bytes(h[i : i + 4], "little") for i in range(0, 16, 4))
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed) & ((1 << 64) - 1), spawn_key=words))


def canonical_bytes(obj) -> bytes:
    """Stable byte encoding for payload digests and size accounting."""
    if isinstance(obj, np.ndarray):
        return b"nd:" + str(obj.dtype).encode() + b":" + str(obj.shape).encode() + b":" + obj.tobytes()
    if isinstance(obj, (bytes, bytearray)):
        return bytes(obj)
    if isinstance(obj, dict):
        return b"{" + b",".join(canonical_bytes(k) + b"=" + canonical_bytes(v) for k, v in sorted(obj.items())) + b"}"
    if isinstance(obj, (list, tuple)):
        return b"[" + b",".join(canonical_bytes(x) for x in obj) + b"]"
    if hasattr(obj, "entries"):
        return canonical_bytes(obj.entries)
    if hasattr(obj, "amplitudes"):
        return canonical_bytes(obj.amplitudes)
    return repr(obj).encode()


def payload_digest(obj) -> str:
    return hashlib.sha256(canonical_bytes(obj)).hexdigest()[:16]


@dataclass
class QueryMeter:
    """Monotone per-party copy/sample counter with a per-round-kind breakdown."""

    total: int = 0
    by_kind: dict = field(default_factory=dict)

    def charge(self, n: int = 1, kind: str = "query"):
        if n < 0:
            raise ValueError("meter increments are non-negative")
        self.total += n
        self.by_kind[kind] = self.by_kind.get(kind, 0) + n

    def snapshot(self) -> dict:
        return {"total": self.total, "by_kind": dict(sorted(self.by_kind.items()))}


class LiveCopyTracker:
    """Counts live unknown-state copies held by the single-copy verifier."""

    def __init__(self, limit: int | None = 1):
        self.limit = limit
        self.live = 0
        self.peak = 0

    def acquire(self):
        self.live += 1
        self.peak = max(self.peak, self.live)
        if self.limit is not None and self.live > self.limit:
            raise MemoryPolicyError(
                f"verifier live copies {self.live} exceed the single-copy limit {self.limit}"
            )

    def release(self):
        if self.live <= 0:
            raise MemoryPolicyError("released a copy that was not live")
        self.live -= 1


class Copy:
    """One copy of a (possibly transformed) oracle state.

    Carries the classical description the simulator uses for exact-law
    sampling. Live-tracking follows the copy through unitary masking and ends
    when it is measured or sent away.
    """

    __slots__ = ("state", "tracker", "alive")

    def __init__(self, state: np.ndarray, tracker: LiveCopyTracker | None):
        self.state = state
        self.tracker = tracker
        self.alive = True

    @property
    def dim(self) -> int:
        return self.state.shape[0]

    def with_unitary(self, u) -> "Copy":
        """Masked copy U rho U+; the live token transfers to the new handle."""
        ue = u.entries if hasattr(u, "entries") else np.asarray(u)
        if not self.alive:
            raise MemoryPolicyError("cannot transform a consumed copy")
        self.alive = False
        new = Copy(ue @ self.state @ ue.conj().T, self.tracker)
        return new

    def consume(self) -> np.ndarray:
        """Measure/send: returns the description and releases the live slot."""
        if not self.alive:
            raise MemoryPolicyError("copy consumed twice")
        self.alive = False
        if self.tracker is not None:
            self.tracker.release()
        return self.state


class CopyStream(Sequence):
    """The descriptions of n copies of one state, streamed one at a time.

    Every copy has the same description, so the stream holds it once: item i
    is ``state`` for every i < n, and a slice is a shorter stream of the same
    state. The copies are already consumed (sent or measured).
    """

    __slots__ = ("state", "n")

    def __init__(self, state, n: int):
        self.state = state
        self.n = n

    def __len__(self) -> int:
        return self.n

    def __iter__(self):
        return itertools.repeat(self.state, self.n)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return CopyStream(self.state, len(range(*i.indices(self.n))))
        if not -self.n <= i < self.n:
            raise IndexError("copy stream index out of range")
        return self.state


class CopyOracle:
    """Hidden instance plus a per-party query meter; one copy per query.

    ``ideal_access`` marks harness-internal oracles whose owner is allowed
    to read the hidden instance directly (ideal-mode contract provers and
    test judges). Everything else goes through copies.
    """

    def __init__(
        self,
        hidden_instance,
        *,
        meter: QueryMeter | None = None,
        tracker: LiveCopyTracker | None = None,
        ideal_access: bool = False,
        instance_kind: str = "quantum-state",
    ):
        self._hidden = hidden_instance
        self.meter = meter if meter is not None else QueryMeter()
        self.tracker = tracker
        self.ideal_access = ideal_access
        self.instance_kind = instance_kind

    def query(self, kind: str = "query") -> Copy:
        if self.instance_kind != "quantum-state":
            raise TypeError("query() yields state copies; use sample() for distributions")
        self.meter.charge(1, kind)
        if self.tracker is not None:
            self.tracker.acquire()
        if hasattr(self._hidden, "entries"):
            state = self._hidden.entries
        elif hasattr(self._hidden, "amplitudes"):
            amps = self._hidden.amplitudes
            state = np.outer(amps, amps.conj())
        else:
            state = self._hidden
        return Copy(state, self.tracker)

    def stream(
        self,
        n: int,
        kind: str = "query",
        *,
        channel: Channel | None = None,
        unitary=None,
        round_index: int = 0,
    ) -> CopyStream:
        """n copies, each queried, masked with ``unitary`` (if given) and then
        sent v->p over ``channel`` (or consumed by the verifier) before the
        next one is queried.

        All n copies share one (masked) description, so this costs one query,
        one masking and one send. Meters, live-copy tracking and channel
        counters and transcript are those of n such single-copy cycles: the
        meter is charged n under ``kind``, and at most one copy is live.
        """
        if n < 0:
            raise ValueError("a stream holds n >= 0 copies")
        if n == 0:
            return CopyStream(None, 0)
        copy = self.query(kind)
        if unitary is not None:
            copy = copy.with_unitary(unitary)
        self.meter.charge(n - 1, kind)
        if channel is not None:
            return channel.send_stream("v->p", copy, n, round_index)
        return CopyStream(copy.consume(), n)

    def sample(self, rng: np.random.Generator, kind: str = "sample") -> int:
        if self.instance_kind != "classical-distribution":
            raise TypeError("sample() is for classical distributions")
        self.meter.charge(1, kind)
        return self._hidden.draw(rng)

    def sample_batch(self, rng: np.random.Generator, size: int, kind: str = "sample"):
        if self.instance_kind != "classical-distribution":
            raise TypeError("sample_batch() is for classical distributions")
        self.meter.charge(size, kind)
        return self._hidden.draw_batch(rng, size)

    def charge_accounting(self, n: int, kind: str):
        """Meter bump for contract-level (ideal-mode) subroutine accounting."""
        self.meter.charge(n, kind)

    def ideal_peek(self):
        if not self.ideal_access:
            raise PermissionError("oracle not flagged for ideal-mode hidden access")
        return self._hidden

    def judge_peek(self):
        """Hidden instance for exact ground-truth judging; test/report context only."""
        return self._hidden


@dataclass
class Message:
    round_index: int
    direction: str
    payload_kind: str
    size: int
    digest: str

    def line(self) -> str:
        return json.dumps(
            {
                "round": self.round_index,
                "direction": self.direction,
                "payload_kind": self.payload_kind,
                "size_bits_or_qudits": self.size,
                "digest": self.digest,
            },
            sort_keys=True,
        )


class Channel:
    """Typed message channel with per-direction bit/qudit counters."""

    def __init__(self, kind: str = "quantum", record_transcript: bool = True):
        if kind not in ("classical", "quantum"):
            raise ValueError(f"unknown channel kind {kind}")
        self.kind = kind
        self.bits_v_to_p = 0
        self.bits_p_to_v = 0
        self.qudits_v_to_p = 0
        self.qudits_p_to_v = 0
        self.transcript: list[Message] = []
        self.record_transcript = record_transcript

    def _count_bits(self, direction: str, nbits: int):
        if direction == "v->p":
            self.bits_v_to_p += nbits
        else:
            self.bits_p_to_v += nbits

    def send_bits(self, direction: str, bits, round_index: int = 0):
        bits = list(bits)
        self._count_bits(direction, len(bits))
        if self.record_transcript:
            self.transcript.append(Message(round_index, direction, "bits", len(bits), payload_digest(bits)))
        return bits

    def send_structured(self, direction: str, obj, round_index: int = 0):
        payload = canonical_bytes(obj)
        nbits = 8 * len(payload)
        self._count_bits(direction, nbits)
        if self.record_transcript:
            self.transcript.append(Message(round_index, direction, "structured", nbits, payload_digest(obj)))
        return obj

    def count_raw_bits(self, direction: str, nbits: int, round_index: int = 0, note: str = "stream"):
        """Accounts a bulk classical payload (e.g. a forwarded sample stream)
        without materializing per-item messages."""
        self._count_bits(direction, nbits)
        if self.record_transcript:
            self.transcript.append(Message(round_index, direction, note, nbits, "-"))

    def send_qudits(self, direction: str, copies, round_index: int = 0):
        """Transfers copies; sending releases the sender's live slots."""
        if self.kind == "classical":
            raise ChannelTypeError("classical channel rejects qudit payloads")
        states = [c.consume() if isinstance(c, Copy) else c for c in copies]
        n = len(states)
        if direction == "v->p":
            self.qudits_v_to_p += n
        else:
            self.qudits_p_to_v += n
        if self.record_transcript:
            self.transcript.append(Message(round_index, direction, "qudits", n, payload_digest(states)))
        return states

    def send_stream(self, direction: str, copy, n: int, round_index: int = 0) -> CopyStream:
        """Transfers n copies of one description one at a time: the counters
        and transcript lines of n one-qudit ``send_qudits`` calls."""
        if self.kind == "classical":
            raise ChannelTypeError("classical channel rejects qudit payloads")
        state = copy.consume() if isinstance(copy, Copy) else copy
        if direction == "v->p":
            self.qudits_v_to_p += n
        else:
            self.qudits_p_to_v += n
        if self.record_transcript:
            message = Message(round_index, direction, "qudits", 1, payload_digest([state]))
            self.transcript.extend([message] * n)
        return CopyStream(state, n)

    def counters(self) -> dict:
        return {
            "bits_v_to_p": self.bits_v_to_p,
            "bits_p_to_v": self.bits_p_to_v,
            "qudits_v_to_p": self.qudits_v_to_p,
            "qudits_p_to_v": self.qudits_p_to_v,
        }


class ProverStrategy:
    """Base for pluggable honest or adversarial prover behaviors."""

    name = "honest"
    honest = True

    def __repr__(self):
        return f"<{type(self).__name__} {self.name}>"


class Session:
    """One verifier-prover interaction: oracles, channel, rng streams, policy."""

    def __init__(
        self,
        *,
        oracle_v: CopyOracle,
        oracle_p: CopyOracle,
        channel: Channel,
        seed: int,
        memory_limit: int | None = 1,
    ):
        self.oracle_v = oracle_v
        self.oracle_p = oracle_p
        self.channel = channel
        self.seed = int(seed)
        self.tracker = oracle_v.tracker
        if self.tracker is None:
            self.tracker = LiveCopyTracker(limit=memory_limit)
            oracle_v.tracker = self.tracker
        self.round_index = 0

    def rng(self, label: str) -> np.random.Generator:
        return derive_rng(self.seed, label)

    def next_round(self) -> int:
        self.round_index += 1
        return self.round_index


@dataclass(frozen=True)
class SessionResult:
    accepted: bool
    output: Any
    abort_reason: str | None
    verifier_queries: int
    prover_queries: int
    verifier_breakdown: dict
    prover_breakdown: dict
    channel_counters: dict
    peak_live_copies: int
    seed: int
    wall_time: float
    extras: dict = field(default_factory=dict)
    transcript_lines: tuple = ()

    def serialize(self, include_timing: bool = False) -> str:
        body = {
            "accepted": self.accepted,
            "output_digest": payload_digest(self.output) if self.output is not None else None,
            "abort_reason": self.abort_reason,
            "verifier_queries": self.verifier_queries,
            "prover_queries": self.prover_queries,
            "verifier_breakdown": self.verifier_breakdown,
            "prover_breakdown": self.prover_breakdown,
            "channel": self.channel_counters,
            "peak_live_copies": self.peak_live_copies,
            "seed": self.seed,
            "extras": {k: _jsonable(v) for k, v in sorted(self.extras.items())},
        }
        if include_timing:
            body["wall_time_s"] = self.wall_time
        return json.dumps(body, sort_keys=True)


def _jsonable(v):
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.floating,)):
        return float(v)
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v


def run_session(verifier, prover: ProverStrategy, oracles, channel: Channel, seed: int) -> SessionResult:
    """Executes one session round-by-round and returns verdict plus full meters.

    Channel-type and memory-policy violations raise; they are harness errors,
    never verdicts. Protocol aborts become ``accepted=False`` results.
    """
    oracle_v, oracle_p = oracles
    session = Session(
        oracle_v=oracle_v,
        oracle_p=oracle_p,
        channel=channel,
        seed=seed,
        memory_limit=getattr(verifier, "memory_limit", 1),
    )
    t0 = time.perf_counter()
    accepted, output, reason = False, None, None
    try:
        output = verifier.run(session, prover)
        accepted = True
    except ProtocolAbort as abort:
        reason = abort.reason
    wall = time.perf_counter() - t0
    return SessionResult(
        accepted=accepted,
        output=output,
        abort_reason=reason,
        verifier_queries=oracle_v.meter.total,
        prover_queries=oracle_p.meter.total,
        verifier_breakdown=oracle_v.meter.snapshot()["by_kind"],
        prover_breakdown=oracle_p.meter.snapshot()["by_kind"],
        channel_counters=channel.counters(),
        peak_live_copies=session.tracker.peak,
        seed=int(seed),
        wall_time=wall,
        extras=dict(getattr(verifier, "extras", {})),
        transcript_lines=tuple(m.line() for m in channel.transcript),
    )


# ---------------------------------------------------------------------------
# Tasks and rate estimation
# ---------------------------------------------------------------------------


@dataclass
class ManyVsOneTask:
    """Triple (accept instance, reject sampler, instance set) plus metadata."""

    name: str
    accept_instance: Any
    reject_sampler: Callable[[np.random.Generator], Any]
    instance_kind: str = "quantum-state"
    dim: int = 0
    accept_output: Any = "accept"

    def __post_init__(self):
        probe = np.random.default_rng(0)
        for _ in range(4):
            rej = self.reject_sampler(probe)
            if self._same(rej, self.accept_instance):
                raise ValueError("reject sampler produced the accept instance")

    @staticmethod
    def _same(a, b) -> bool:
        if hasattr(a, "entries") and hasattr(b, "entries"):
            return bool(np.allclose(a.entries, b.entries, atol=1e-9))
        return a == b

    def classify_output(self, output) -> str:
        return "accept" if output == self.accept_output else "reject"


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    if trials <= 0:
        return (0.0, 1.0)
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass
class RateRecord:
    trials: int
    accept_and_valid: int
    accept_and_invalid: int
    abort: int

    def rates(self) -> dict:
        out = {}
        for label, count in (
            ("accept_and_valid", self.accept_and_valid),
            ("accept_and_invalid", self.accept_and_invalid),
            ("abort", self.abort),
        ):
            lo, hi = wilson_interval(count, self.trials)
            out[label] = {"count": count, "rate": count / self.trials, "wilson95": [lo, hi]}
        return out


def run_trials(
    runner: Callable,
    judge: Callable,
    instance_sampler: Callable,
    strategy: ProverStrategy,
    trials: int,
    seed: int,
    seed_label: str,
) -> tuple[RateRecord, list[SessionResult], list]:
    """The Monte-Carlo trial loop of ``batch_rates`` and of the CLI runner.

    Trial t samples its instance with ``derive_rng(seed, "instance", t)`` and
    runs its session with a seed drawn from ``derive_rng(seed, seed_label, t)``:
    ``batch_rates`` passes "trial-seed" and the CLI "trial", which keeps the
    acceptance tests' seeds and every report byte of both. A trial with an
    output is judged: every accepted session, and a distinguisher run, whose
    answer is "reject" also when the simulated verifier aborted. Returns the
    counts, the results and each trial's validity (None when not judged).
    """
    if trials < 1:
        raise ValueError("trials >= 1 required")
    av = ai = ab = 0
    results, valids = [], []
    for t in range(trials):
        instance = instance_sampler(derive_rng(seed, "instance", t))
        trial_seed = int(derive_rng(seed, seed_label, t).integers(0, 2**63 - 1))
        res = runner(instance, strategy, trial_seed)
        valid = None if res.output is None else judge(res.output, instance)
        results.append(res)
        valids.append(valid)
        if not res.accepted:
            ab += 1
        elif valid:
            av += 1
        else:
            ai += 1
    return RateRecord(trials, av, ai, ab), results, valids


def batch_rates(
    runner: Callable,
    judge: Callable,
    instance_sampler: Callable,
    strategy: ProverStrategy,
    trials: int,
    seed: int,
) -> tuple[RateRecord, list[SessionResult]]:
    """Monte-Carlo completeness/soundness rates with an exact hidden-instance judge.

    ``runner(instance, strategy, trial_seed) -> SessionResult``;
    ``judge(output, instance) -> bool`` may peek at the hidden instance
    (test/report context only); ``instance_sampler(rng) -> instance``.
    """
    rec, results, _ = run_trials(
        runner, judge, instance_sampler, strategy, trials, seed, "trial-seed"
    )
    return rec, results


def choose(what: str, name: str, choices: dict):
    """``choices[name]``; an unknown name is a ValueError listing the choices."""
    if name not in choices:
        raise ValueError(f"unknown {what} {name!r}; choose from {', '.join(sorted(choices))}")
    return choices[name]


# ---------------------------------------------------------------------------
# The IP -> distinguisher transformation
# ---------------------------------------------------------------------------


class NogoDistinguisher:
    """Standalone algorithm D built from an IP (V, P) for a many-vs-one task.

    Given oracle access to an unknown instance x, D simulates the interaction
    of V@O_V(x) with the honest prover P given a fresh oracle whose hidden
    instance is the public accept instance x_A. D rejects iff the simulated V
    aborts or outputs the reject answer. D's verifier-oracle query count is
    exactly V's in-protocol count.
    """

    def __init__(self, task: ManyVsOneTask, ip_runner: Callable, honest_prover: ProverStrategy):
        self.task = task
        self.ip_runner = ip_runner
        self.honest_prover = honest_prover

    def run(self, unknown_instance, seed: int) -> tuple[str, SessionResult]:
        result = self.ip_runner(
            unknown_instance,
            self.honest_prover,
            seed,
            prover_hidden=self.task.accept_instance,
        )
        if not result.accepted:
            return "reject", result
        return self.task.classify_output(result.output), result


def build_nogo_distinguisher(task: ManyVsOneTask, ip_runner: Callable, honest_prover) -> NogoDistinguisher:
    return NogoDistinguisher(task, ip_runner, honest_prover)


# ---------------------------------------------------------------------------
# Delegation-channel contract (multi-copy measurement via untrusted prover)
# ---------------------------------------------------------------------------


def delegation_security(delta: float) -> tuple[int, float]:
    """Security parameter and undetected-cheat probability for confidence delta.

    d_sec = ceil((5/2) log_{5/6}(delta/2)); a cheating prover escapes the trap
    check with probability at most (5/6)^ceil(2 d_sec / 5) <= delta/2.
    """
    if not 0 < delta < 1:
        raise ValueError("delta in (0,1)")
    d_sec = math.ceil(2.5 * math.log(delta / 2) / math.log(5 / 6))
    escape = (5 / 6) ** math.ceil(2 * d_sec / 5)
    return d_sec, escape


def delegated_measure(
    measurement: Callable,
    copy_stream,
    *,
    mode: str = "ideal-honest",
    tamper: Callable | None = None,
    delta: float = 1 / 3,
    rng: np.random.Generator,
):
    """Multi-copy measurement executed by the prover under the delegation contract.

    ``copy_stream`` is a ``CopyStream`` of the copies the prover received, or
    an iterable of copies and descriptions. Honest mode runs
    ``measurement(states, rng)`` faithfully and never aborts.
    Cheat mode applies ``tamper`` to the honest outcome; the verifier-side trap
    check catches the deviation and aborts except with the escape probability
    from ``delegation_security(delta)``, in which case the tampered outcome is
    delivered undetected.
    """
    if isinstance(copy_stream, CopyStream):
        states = copy_stream
    else:
        states = [c.consume() if isinstance(c, Copy) else c for c in copy_stream]
    if mode == "ideal-honest":
        return measurement(states, rng)
    if mode == "ideal-cheat":
        if tamper is None:
            raise ValueError("cheat mode needs a tamper function")
        _, escape = delegation_security(delta)
        outcome = tamper(measurement(states, rng))
        if rng.random() < escape:
            return outcome
        raise DelegationAbort("delegation trap check failed")
    raise ValueError(f"unknown delegation mode {mode}")


# ---------------------------------------------------------------------------
# Trivial validation IP (prover solves, verifier decides validity)
# ---------------------------------------------------------------------------


@dataclass
class DecideValid:
    """Sampled decide-valid subroutine with stated cost and failure probability."""

    check: Callable  # (oracle_v, hypothesis, rng) -> bool; queries the oracle itself
    failure_prob: float
    description: str = "decide-valid"


class TrivialValidationIP:
    """Composed IP: prover sends a hypothesis, verifier runs decide-valid."""

    memory_limit = 1

    def __init__(self, decide_valid: DecideValid):
        self.decide_valid = decide_valid
        self.extras = {"decide_valid": decide_valid.description}

    def run(self, session: Session, prover):
        hyp = prover.solve(session.oracle_p, session.rng("prover-solve"))
        session.channel.send_structured("p->v", hyp, session.next_round())
        ok = self.decide_valid.check(session.oracle_v, hyp, session.rng("decide-valid"))
        if not ok:
            raise ProtocolAbort("decide-valid rejected the hypothesis")
        return hyp
