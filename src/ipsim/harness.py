"""Protocol infrastructure.

Many-vs-one tasks, copy oracles with query meters, typed channels with
transcripts, the single-copy verifier memory policy, session execution,
Monte-Carlo rate estimation with Wilson intervals, the one protocol
interface (``Protocol``, ``Verifier``), the generic
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
from dataclasses import dataclass, field, replace
from typing import Any, Callable, ClassVar

import numpy as np


class MemoryPolicyError(RuntimeError):
    """The verifier exceeded its live-copy budget. Hard failure, never a verdict."""


class ChannelTypeError(RuntimeError):
    """A qudit payload was pushed through a classical channel."""


class ProtocolAbort(Exception):
    """The verifier aborted the interaction (a sound verdict, not an error)."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def derive_rng(seed: int, *labels) -> np.random.Generator:
    """Deterministic per-purpose generator from a session seed and string labels.

    The generator is PCG64 seeded by ``SeedSequence(entropy=e,
    spawn_key=w)``, with e the seed's low 64 bits and w the first four
    little-endian 32-bit words of sha256(repr((seed, *labels))). That
    sequence pools e's 32-bit words, zero-padded to its pool size of four,
    followed by the key words; those eight words are passed here as one
    entropy array, which builds the same pool without coercing each word.
    """
    h = hashlib.sha256(repr((int(seed),) + tuple(labels)).encode()).digest()
    entropy = (int(seed) & ((1 << 64) - 1)).to_bytes(16, "little") + h[:16]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(np.frombuffer(entropy, dtype="<u4"))))


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
    if hasattr(obj, "generators"):  # a stabilizer state description
        return canonical_bytes(obj.generators)
    if obj is None or isinstance(obj, (str, int, float, np.generic)):
        return repr(obj).encode()
    raise TypeError(f"no canonical encoding for {type(obj).__name__}")


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

    def with_unitary(self, u) -> "Copy":
        """Masked copy U rho U+, or the stack of them for a stack of masks U;
        the live token transfers to the new handle."""
        ue = u.entries if hasattr(u, "entries") else np.asarray(u)
        if not self.alive:
            raise MemoryPolicyError("cannot transform a consumed copy")
        self.alive = False
        return Copy(ue @ self.state @ ue.conj().swapaxes(-1, -2), self.tracker)

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
    """Hidden instance plus a per-party query meter; one copy per query, or
    a batch of samples when the instance is a classical distribution (it has
    ``draw_batch``).

    ``ideal_access`` marks harness-internal oracles whose owner is allowed
    to read the hidden instance directly (ideal-mode contract provers and
    test judges). Everything else goes through copies.
    """

    def __init__(self, hidden_instance, *, tracker: LiveCopyTracker | None = None, ideal_access: bool = False):
        self._hidden = hidden_instance
        self.meter = QueryMeter()
        self.tracker = tracker
        self.ideal_access = ideal_access

    def query(self, kind: str = "query") -> Copy:
        if hasattr(self._hidden, "draw_batch"):
            raise TypeError("query() yields state copies; use sample_batch() for distributions")
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

    def stream(self, n: int, kind: str = "query", *, channel: Channel | None = None, unitary=None) -> CopyStream:
        """n copies, each queried, masked with ``unitary`` (if given) and then
        sent v->p over ``channel`` in its current round (or consumed by the
        verifier) before the next one is queried.

        All n copies share one (masked) description, so this costs one query,
        one masking and one send. Meters, live-copy tracking and channel
        counters and transcript are those of n such single-copy cycles: the
        meter is charged n under ``kind``, and at most one copy is live.

        ``unitary`` may be a stack of k masks, one per round, consumed by the
        verifier (no channel): one query and one masking then give the stack
        of the k rounds' descriptions, and the meter is charged n k.
        """
        if n < 0:
            raise ValueError("a stream holds n >= 0 copies")
        stacked = getattr(unitary, "ndim", 2) == 3
        if stacked and channel is not None:
            raise ValueError("a stack of masks gives descriptions to the verifier, not copies to send")
        copies = n * (len(unitary) if stacked else 1)
        if copies == 0:
            return CopyStream(None, 0)
        copy = self.query(kind)
        if unitary is not None:
            copy = copy.with_unitary(unitary)
        self.meter.charge(copies - 1, kind)
        if channel is not None:
            return channel.send_stream("v->p", copy, n, channel.round)
        return CopyStream(copy.consume(), n)

    def sample_batch(self, rng: np.random.Generator, size: int, kind: str = "sample"):
        if not hasattr(self._hidden, "draw_batch"):
            raise TypeError("sample_batch() is for classical distributions")
        self.meter.charge(size, kind)
        return self._hidden.draw_batch(rng, size)

    def ideal_peek(self):
        if not self.ideal_access:
            raise PermissionError("oracle not flagged for ideal-mode hidden access")
        return self._hidden

    def judge_peek(self):
        """Hidden instance for exact ground-truth judging; test/report context only."""
        return self._hidden


def transcript_line(round_index: int, direction: str, payload_kind: str, size: int, digest: str) -> str:
    """One channel message as its JSONL transcript line."""
    return json.dumps(
        {
            "round": round_index,
            "direction": direction,
            "payload_kind": payload_kind,
            "size_bits_or_qudits": size,
            "digest": digest,
        },
        sort_keys=True,
    )


class Channel:
    """Typed message channel with per-direction bit/qudit counters and, when
    recording, the transcript as its JSONL lines.

    ``round`` is the round the session opened last (``Session.next_round``);
    bulk sends that name no round, a stream and a raw bit count, are stamped
    with it, so a transcript's rounds never decrease.
    """

    def __init__(self, kind: str = "quantum", record_transcript: bool = True):
        if kind not in ("classical", "quantum"):
            raise ValueError(f"unknown channel kind {kind}")
        self.kind = kind
        self.bits_v_to_p = 0
        self.bits_p_to_v = 0
        self.qudits_v_to_p = 0
        self.qudits_p_to_v = 0
        self.transcript: list[str] = []
        self.record_transcript = record_transcript
        self.round = 0

    def _count_bits(self, direction: str, nbits: int):
        if direction == "v->p":
            self.bits_v_to_p += nbits
        else:
            self.bits_p_to_v += nbits

    def send_bits(self, direction: str, bits, round_index: int = 0):
        bits = list(bits)
        self._count_bits(direction, len(bits))
        if self.record_transcript:
            self.transcript.append(transcript_line(round_index, direction, "bits", len(bits), payload_digest(bits)))
        return bits

    def send_structured(self, direction: str, obj, round_index: int = 0):
        payload = canonical_bytes(obj)
        nbits = 8 * len(payload)
        self._count_bits(direction, nbits)
        if self.record_transcript:
            self.transcript.append(transcript_line(round_index, direction, "structured", nbits, payload_digest(payload)))
        return obj

    def count_raw_bits(self, direction: str, nbits: int, note: str = "stream"):
        """Accounts a bulk classical payload (e.g. a forwarded sample stream)
        in the current round without materializing per-item messages."""
        self._count_bits(direction, nbits)
        if self.record_transcript:
            self.transcript.append(transcript_line(self.round, direction, note, nbits, "-"))

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
            self.transcript.append(transcript_line(round_index, direction, "qudits", n, payload_digest(states)))
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
            line = transcript_line(round_index, direction, "qudits", 1, payload_digest([state]))
            self.transcript.extend([line] * n)
        return CopyStream(state, n)

    def send_rounds(self, states, n: int, answers, first_round: int) -> None:
        """Round ``first_round + i`` sends n copies of ``states[i]`` v->p and
        the bit ``answers[i]`` p->v: the counters and transcript lines, in
        order, of a ``send_stream`` and a ``send_bits`` per round."""
        if self.kind == "classical":
            raise ChannelTypeError("classical channel rejects qudit payloads")
        self.qudits_v_to_p += n * len(states)
        self.bits_p_to_v += len(answers)
        if self.record_transcript:
            for r, (state, answer) in enumerate(zip(states, answers), first_round):
                self.transcript += [transcript_line(r, "v->p", "qudits", 1, payload_digest([state]))] * n
                self.transcript.append(transcript_line(r, "p->v", "bits", 1, payload_digest([answer])))

    def counters(self) -> dict:
        return {
            "bits_v_to_p": self.bits_v_to_p,
            "bits_p_to_v": self.bits_p_to_v,
            "qudits_v_to_p": self.qudits_v_to_p,
            "qudits_p_to_v": self.qudits_p_to_v,
        }


class ProverStrategy:
    """Base for pluggable honest or adversarial prover behaviors, built from
    the protocol config (``make_prover``); most ignore it."""

    name = "honest"
    tamper = None  # a cheating prover's map on the outcome of a delegated measurement

    def __init__(self, cfg=None):
        self.cfg = cfg

    def __repr__(self):
        return f"<{type(self).__name__} {self.name}>"


class Session:
    """One verifier-prover interaction: oracles, channel and rng streams."""

    def __init__(self, *, oracle_v: CopyOracle, oracle_p: CopyOracle, channel: Channel, seed: int):
        self.oracle_v = oracle_v
        self.oracle_p = oracle_p
        self.channel = channel
        self.seed = int(seed)

    def rng(self, label: str) -> np.random.Generator:
        return derive_rng(self.seed, label)

    def next_round(self, n: int = 1) -> int:
        """Starts the next n rounds; returns the index of the first. The
        channel's current round is then the last of them."""
        self.channel.round += n
        return self.channel.round - n + 1


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


def run_session(
    verifier,
    prover: ProverStrategy,
    hidden,
    seed: int,
    *,
    record_transcript: bool = False,
    prover_hidden=None,
) -> SessionResult:
    """Builds one session on ``hidden``, executes it round-by-round and
    returns verdict plus full meters.

    The verifier's oracle tracks live copies against ``verifier.memory_limit``
    and never has ideal access; the prover's oracle holds ``prover_hidden``
    (``hidden`` when None) with ideal access. The channel is of
    ``verifier.channel_kind``. Channel-type and memory-policy violations
    raise; they are harness errors, never verdicts. Protocol aborts become
    ``accepted=False`` results.
    """
    tracker = LiveCopyTracker(limit=verifier.memory_limit)
    oracle_v = CopyOracle(hidden, tracker=tracker)
    oracle_p = CopyOracle(hidden if prover_hidden is None else prover_hidden, ideal_access=True)
    channel = Channel(verifier.channel_kind, record_transcript=record_transcript)
    session = Session(oracle_v=oracle_v, oracle_p=oracle_p, channel=channel, seed=seed)
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
        verifier_breakdown=dict(sorted(oracle_v.meter.by_kind.items())),
        prover_breakdown=dict(sorted(oracle_p.meter.by_kind.items())),
        channel_counters=channel.counters(),
        peak_live_copies=tracker.peak,
        seed=int(seed),
        wall_time=wall,
        extras=dict(getattr(verifier, "extras", {})),
        transcript_lines=tuple(channel.transcript),
    )


# ---------------------------------------------------------------------------
# Tasks and rate estimation
# ---------------------------------------------------------------------------


def same_instance(instance, other) -> bool:
    """Whether two hidden instances are the same: density matrices to within
    1e-9 entrywise, anything else by equality."""
    if hasattr(instance, "entries") and hasattr(other, "entries"):
        return bool(np.abs(instance.entries - other.entries).max() <= 1e-9)
    return instance == other


@dataclass
class ManyVsOneTask:
    """Accept instance, reject sampler and the output that names the accept side."""

    accept_instance: Any
    reject_sampler: Callable[[np.random.Generator], Any]
    accept_output: Any = "accept"

    def __post_init__(self):
        probe = np.random.default_rng(0)
        for _ in range(4):
            if self.is_accept(self.reject_sampler(probe)):
                raise ValueError("reject sampler produced the accept instance")

    def is_accept(self, instance) -> bool:
        """Whether ``instance`` is the accept instance."""
        return same_instance(instance, self.accept_instance)

    def classify_output(self, output) -> str:
        return "accept" if output == self.accept_output else "reject"


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    z = 1.96  # two-sided 95%
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
    correct: int = 0  # judged valid, aborted trials included

    def rates(self, correct: bool = False) -> dict:
        """Count, rate and Wilson interval of each outcome; with ``correct``
        also of the valid answers, for runs whose aborted trials answer too."""
        counts = {
            "accept_and_valid": self.accept_and_valid,
            "accept_and_invalid": self.accept_and_invalid,
            "abort": self.abort,
        }
        if correct:
            counts["correct"] = self.correct
        return {
            label: {
                "count": count,
                "rate": count / self.trials,
                "wilson95": list(wilson_interval(count, self.trials)),
            }
            for label, count in counts.items()
        }


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
    return RateRecord(trials, av, ai, ab, valids.count(True)), results, valids


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
# The protocol interface (see the comment on ``cli.PROTOCOLS``)
# ---------------------------------------------------------------------------


class Verifier:
    """Base of a config's ``verifier``: ``run(session, prover)`` returns V's
    output or raises ``ProtocolAbort``. A quantum verifier holds one live
    copy at a time; a session's ``extras`` start as the config's closed forms."""

    memory_limit = 1
    channel_kind = "quantum"

    def __init__(self, cfg):
        self.cfg = cfg
        self.extras = cfg.formula()


# The range rules several configs share: field -> (holds, message).
RANGE_RULES = {
    "d": (lambda d: d >= 2, "d must be >= 2"),
    "epsilon": (lambda eps: 0 < eps < 1, "epsilon must be in (0, 1)"),
    "delta": (lambda delta: 0 < delta < 1, "delta must be in (0, 1)"),
    "mode": (lambda mode: mode in ("ideal", "sampled"), "mode must be ideal or sampled"),
}


@dataclass(frozen=True)
class Protocol:
    """Base of every protocol config. A config declares its keys as fields,
    its ``verifier`` class and its ``provers`` ({"honest": P, **ADVERSARIES});
    the base gives it the experiment's transcript flag, the default trial
    keys, the one session (``run_one``), the prover factory and the shared
    range rules."""

    record_transcript: bool = field(default=False, kw_only=True)
    trial_keys: ClassVar[dict] = {"adversary": "honest"}
    answers_on_abort: ClassVar[bool] = False  # True: the report also gives the rate of correct answers

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.run_one = cls.run_one  # into the config's own namespace, where the benchmark times and traces it

    def run_one(self, hidden, prover: ProverStrategy, seed: int, prover_hidden=None) -> SessionResult:
        """One session of this config's verifier against ``prover`` on
        ``hidden`` (the prover's oracle on ``prover_hidden``, default ``hidden``)."""
        return run_session(
            self.verifier(self),
            prover,
            hidden,
            seed,
            record_transcript=self.record_transcript,
            prover_hidden=prover_hidden,
        )

    def make_prover(self, name: str) -> ProverStrategy:
        """The prover ``provers[name]`` built from this config; an unknown name is a ValueError."""
        return choose("adversary", name, self.provers)(self)

    def require(self, *names: str) -> None:
        """Applies the ``RANGE_RULES`` of the named fields in order; the first
        that fails is a ValueError."""
        for name in names:
            holds, message = RANGE_RULES[name]
            if not holds(getattr(self, name)):
                raise ValueError(message)


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


def run_distinguisher(cfg, hidden, prover: ProverStrategy, seed: int) -> SessionResult:
    """One session of ``cfg.ip`` run by the distinguisher for ``cfg.task``,
    with its answer as the output: the ``run_one`` of a config that wraps an IP."""
    answer, result = NogoDistinguisher(cfg.task, cfg.ip.run_one, prover).run(hidden, seed)
    return replace(result, output=answer)


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
    copies,
    *,
    tamper: Callable | None = None,
    delta: float,
    rng: np.random.Generator,
):
    """Multi-copy measurement executed by the prover under the delegation contract.

    ``copies`` is a ``CopyStream`` of the copies the prover received, or an
    iterable of copies and descriptions. The prover runs
    ``measurement(states, rng)``; an honest prover (``tamper`` None) returns
    the outcome. A cheating prover delivers ``tamper(outcome)``, and the
    verifier-side trap check catches it and aborts the session except with
    the escape probability from ``delegation_security(delta)``.
    """
    if isinstance(copies, CopyStream):
        states = copies
    else:
        states = [c.consume() if isinstance(c, Copy) else c for c in copies]
    outcome = measurement(states, rng)
    if tamper is None:
        return outcome
    _, escape = delegation_security(delta)
    outcome = tamper(outcome)
    if rng.random() < escape:
        return outcome
    raise ProtocolAbort("delegation trap check failed")


# ---------------------------------------------------------------------------
# Trivial validation IP (prover solves, verifier decides validity)
# ---------------------------------------------------------------------------


class TrivialValidationIP(Verifier):
    """Composed IP: prover sends a hypothesis, verifier runs decide-valid.

    ``cfg.check(oracle_v, hypothesis, rng) -> bool`` is the decide-valid
    subroutine; it queries the oracle itself.
    """

    def run(self, session: Session, prover):
        hyp = prover.solve(session.oracle_p, session.rng("prover-solve"))
        session.channel.send_structured("p->v", hyp, session.next_round())
        ok = self.cfg.check(session.oracle_v, hyp, session.rng("decide-valid"))
        if not ok:
            raise ProtocolAbort("decide-valid rejected the hypothesis")
        return hyp
