"""Black-box interactive proof for purity testing over a quantum channel.

The verifier alternates uniformly between mixed-test, pure-test and compute
rounds, masking every round with a fresh private unitary. The honest prover
answers each round with pairwise SWAP tests; the verifier aborts on any
failed test round or inconsistent compute answers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from . import qcore, qmeas
from .harness import (
    Channel,
    CopyOracle,
    CopyStream,
    ManyVsOneTask,
    ProtocolAbort,
    ProverStrategy,
    SessionResult,
    build_nogo_distinguisher,
    choose,
    derive_rng,
    run_session,
)

PURE = 1
MIXED = 0

OUTPUT_PURE = "pure"
OUTPUT_MIXED = "maximally mixed"

MASK_ENSEMBLES = ("haar", "clifford", "pauli")


@dataclass(frozen=True)
class PurityParams:
    delta: float
    d: int
    N: int
    delta_tilde: float
    m: int
    mask_ensemble: str = "haar"


def purity_params(delta: float, d: int, mask_ensemble: str = "haar") -> PurityParams:
    """Round count, per-round failure budget and SWAP-test copy budget.

    N = ceil(max{72 ln(6/delta), 4 log2(2/delta)}); delta_tilde = delta/(2N).
    m comes from the exact SWAP analysis: maximally mixed copies pass a single
    test with probability (1+1/d)/2, so t = ceil(ln(1/dt)/ln(2/(1+1/d))) tests
    (m = 2t copies) push the wrong-answer probability below delta_tilde; pure
    copies never fail a test.
    """
    if not 0 < delta < 1:
        raise ValueError("delta in (0,1) required")
    if d < 2:
        raise ValueError("d >= 2 required")
    if mask_ensemble not in MASK_ENSEMBLES:
        raise ValueError(f"mask_ensemble must be one of {MASK_ENSEMBLES}")
    n_rounds = math.ceil(max(72 * math.log(6 / delta), 4 * math.log2(2 / delta)))
    delta_tilde = delta / (2 * n_rounds)
    tests = math.ceil(math.log(1 / delta_tilde) / math.log(2 / (1 + 1 / d)))
    return PurityParams(
        delta=delta,
        d=d,
        N=n_rounds,
        delta_tilde=delta_tilde,
        m=2 * tests,
        mask_ensemble=mask_ensemble,
    )


@dataclass
class RoundRecord:
    kind: str  # "m" | "p" | "c"
    mask: qcore.UnitaryOp | None
    prover_answer: int
    pass_flag: int | None  # set for test rounds only


def _sample_mask(ensemble: str, d: int, rng: np.random.Generator) -> qcore.UnitaryOp:
    if ensemble == "haar":
        return qcore.sample_haar_unitary(d, rng)
    n = int(round(math.log2(d)))
    if (1 << n) != d:
        raise ValueError(f"{ensemble} masks need a power-of-two dimension, got {d}")
    if ensemble == "clifford":
        return qmeas.sample_uniform_clifford(n, rng)
    label = qmeas.PauliLabel.from_index(n, int(rng.integers(0, 4**n)))
    return qcore.UnitaryOp(qmeas.dense_pauli(label))


def prepare_round_state(
    kind: str,
    oracle_v: CopyOracle,
    params: PurityParams,
    rng,
    channel: Channel,
    round_index: int,
) -> tuple[CopyStream, qcore.UnitaryOp | None]:
    """Sends one round's m copies v->p, one at a time; returns the copies the
    prover received and the private mask.

    Mixed test rounds cost no oracle queries and carry no mask; pure test
    rounds mask |0><0|; compute rounds mask m fresh oracle copies.
    """
    d = params.d
    if kind == "m":
        state = np.eye(d, dtype=complex) / d
        return channel.send_stream("v->p", state, params.m, round_index), None
    mask = _sample_mask(params.mask_ensemble, d, rng)
    if kind == "p":
        ue = mask.entries
        state = np.outer(ue[:, 0], ue[:, 0].conj())
        return channel.send_stream("v->p", state, params.m, round_index), mask
    if kind == "c":
        copies = oracle_v.stream(
            params.m, "compute-round", channel=channel, unitary=mask, round_index=round_index
        )
        return copies, mask
    raise ValueError(f"unknown round kind {kind}")


def swap_outcomes(states, rng: np.random.Generator):
    """Pairwise SWAP tests of copies 2i and 2i+1, one ``rng.random()`` each,
    drawn lazily as the outcomes are consumed.

    The accept probability is computed once per distinct pair of description
    objects, so a round of m copies of one description costs one overlap.
    """
    probs = {}
    for a, b in zip(states[0::2], states[1::2]):
        key = (id(a), id(b))
        p = probs.get(key)
        if p is None:
            p = probs[key] = qmeas.swap_probability(a, b)
        yield int(rng.random() < p)


def honest_purity_answer(states, rng: np.random.Generator) -> int:
    """PURE iff all m/2 pairwise SWAP tests accept; stops at the first rejection."""
    if len(states) % 2:
        raise ValueError("honest SWAP analysis needs an even number of copies")
    return PURE if all(swap_outcomes(states, rng)) else MIXED


def purity_verdict(records: list[RoundRecord]) -> str:
    """Abort on any failed test or inconsistent/missing compute answers."""
    for rec in records:
        if rec.kind in ("m", "p") and rec.pass_flag == 0:
            raise ProtocolAbort(f"failed {rec.kind}-test round")
    compute_answers = [rec.prover_answer for rec in records if rec.kind == "c"]
    if not compute_answers:
        raise ProtocolAbort("no compute round occurred")
    if len(set(compute_answers)) != 1:
        raise ProtocolAbort("inconsistent compute-round answers")
    return OUTPUT_PURE if compute_answers[0] == PURE else OUTPUT_MIXED


class HonestSwapProver(ProverStrategy):
    """Distinguishes pure from maximally mixed via m/2 pairwise SWAP tests."""

    name = "honest-swap"
    honest = True

    def answer_round(self, states, params: PurityParams, rng) -> int:
        return honest_purity_answer(states, rng)


class AlwaysPure(ProverStrategy):
    name = "always-pure"
    honest = False

    def answer_round(self, states, params, rng) -> int:
        return PURE


class AlwaysMixed(ProverStrategy):
    name = "always-mixed"
    honest = False

    def answer_round(self, states, params, rng) -> int:
        return MIXED


class UniformRandomAnswer(ProverStrategy):
    name = "uniform-random"
    honest = False

    def answer_round(self, states, params, rng) -> int:
        return int(rng.integers(0, 2))


class BestEffortLiar(ProverStrategy):
    """Runs the honest SWAP analysis, then inverts its answer on rounds whose
    SWAP-accept fraction sits closer to the mixed/compute prediction
    (1+1/d)/2 than to the pure prediction 1."""

    name = "best-effort-liar"
    honest = False

    def answer_round(self, states, params, rng) -> int:
        accepts = sum(swap_outcomes(states, rng))
        frac = accepts / (len(states) // 2)
        honest = PURE if accepts == len(states) // 2 else MIXED
        compute_prediction = (1 + 1 / params.d) / 2
        believes_compute = abs(frac - compute_prediction) <= abs(frac - 1.0)
        return 1 - honest if believes_compute else honest


ADVERSARIES = {
    cls.name: cls for cls in (AlwaysPure, AlwaysMixed, UniformRandomAnswer, BestEffortLiar)
}


class PurityVerifier:
    """Runs Algorithm-style round scheduling and the abort/consistency rule."""

    memory_limit = 1

    def __init__(self, params: PurityParams, kind_seed: int | None = None):
        self.params = params
        # kind_seed decouples round-kind randomness from the session seed so
        # meter structure can be compared across dimensions
        self.kind_seed = kind_seed
        self.extras: dict = {
            "N": params.N,
            "m": params.m,
            "delta_tilde": params.delta_tilde,
            "d": params.d,
            "mask_ensemble": params.mask_ensemble,
        }

    def run(self, session, prover) -> str:
        p = self.params
        rng_kinds = (
            derive_rng(self.kind_seed, "round-kinds")
            if self.kind_seed is not None
            else session.rng("round-kinds")
        )
        rng_mask = session.rng("masks")
        rng_prover = session.rng("prover")
        records: list[RoundRecord] = []
        kinds = ("m", "p", "c")
        for _ in range(p.N):
            kind = kinds[int(rng_kinds.integers(0, 3))]
            round_idx = session.next_round()
            received, mask = prepare_round_state(
                kind, session.oracle_v, p, rng_mask, session.channel, round_idx
            )
            answer = int(prover.answer_round(received, p, rng_prover))
            session.channel.send_bits("p->v", [answer], round_idx)
            if kind == "m":
                pass_flag = 1 if answer == MIXED else 0
            elif kind == "p":
                pass_flag = 1 if answer == PURE else 0
            else:
                pass_flag = None
            records.append(RoundRecord(kind, mask, answer, pass_flag))
        self.extras["compute_rounds"] = sum(1 for r in records if r.kind == "c")
        self.extras["round_kind_counts"] = {
            k: sum(1 for r in records if r.kind == k) for k in kinds
        }
        return purity_verdict(records)


@dataclass
class PurityConfig:
    """Experiment-level configuration; builds sessions, tasks and judges."""

    d: int = 8
    delta: float = 1 / 3
    mask_ensemble: str = "haar"
    record_transcript: bool = False
    kind_seed: int | None = field(default=None, metadata={"cli": False})  # set by tests only
    trial_keys: ClassVar[dict] = {"adversary": "honest", "instance": "accept"}

    def params(self) -> PurityParams:
        return purity_params(self.delta, self.d, self.mask_ensemble)

    def formula(self) -> dict:
        p = self.params()
        return {"N": p.N, "m": p.m, "delta_tilde": p.delta_tilde}

    def make_prover(self, name: str) -> ProverStrategy:
        return choose("adversary", name, {"honest": HonestSwapProver, **ADVERSARIES})()

    def task(self) -> ManyVsOneTask:
        d = self.d
        return ManyVsOneTask(
            name="purity",
            accept_instance=qcore.maximally_mixed(d),
            reject_sampler=lambda rng: qcore.sample_pure_state(d, rng).density(),
            instance_kind="quantum-state",
            dim=d,
            accept_output=OUTPUT_MIXED,
        )

    def sample_instance(self, which: str, rng: np.random.Generator) -> qcore.DensityMatrix:
        if which == "accept":
            return qcore.maximally_mixed(self.d)
        if which == "reject":
            return qcore.sample_pure_state(self.d, rng).density()
        raise ValueError(f"unknown instance source {which}")

    def run_one(self, hidden, prover: ProverStrategy, seed: int, prover_hidden=None) -> SessionResult:
        verifier = PurityVerifier(self.params(), kind_seed=self.kind_seed)
        oracle_v = CopyOracle(hidden)
        oracle_p = CopyOracle(prover_hidden if prover_hidden is not None else hidden)
        channel = Channel("quantum", record_transcript=self.record_transcript)
        return run_session(verifier, prover, (oracle_v, oracle_p), channel, seed)

    def judge(self, output, hidden) -> bool:
        """Exact validity: the answer must match the hidden instance type."""
        if qcore.purity(hidden) > 1 - 1e-9:
            return output == OUTPUT_PURE
        if np.allclose(hidden.entries, np.eye(self.d) / self.d, atol=1e-9):
            return output == OUTPUT_MIXED
        return True  # outside the promise both answers are valid


@dataclass
class NogoConfig:
    """The distinguisher that ``build_nogo_distinguisher`` builds from the
    purity IP and its honest prover, run on accept (maximally mixed) or
    reject (Haar-random pure) instances. A trial's validity is whether the
    distinguisher named the instance's side, also when it answered "reject"
    because the simulated verifier aborted."""

    d: int = 8
    delta: float = 1 / 3
    record_transcript: bool = False
    trial_keys: ClassVar[dict] = {"instance": "accept"}

    def __post_init__(self):
        self.ip = PurityConfig(d=self.d, delta=self.delta, record_transcript=self.record_transcript)
        self.task = self.ip.task()

    def formula(self) -> dict:
        p = self.ip.params()
        return {"N": p.N, "m": p.m}

    def make_prover(self, name: str) -> ProverStrategy:
        return self.ip.make_prover(name)

    def sample_instance(self, which: str, rng: np.random.Generator) -> qcore.DensityMatrix:
        return self.ip.sample_instance(which, rng)

    def run_one(self, hidden, prover: ProverStrategy, seed: int) -> SessionResult:
        """The simulated session, with the distinguisher's answer as its output."""
        distinguisher = build_nogo_distinguisher(self.task, self.ip.run_one, prover)
        answer, res = distinguisher.run(hidden, seed)
        return replace(res, output=answer)

    def judge(self, output, hidden) -> bool:
        mixed = np.allclose(hidden.entries, np.eye(self.d) / self.d, atol=1e-9)
        return output == ("accept" if mixed else "reject")
