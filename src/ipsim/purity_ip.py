"""Black-box interactive proof for purity testing over a quantum channel.

The verifier alternates uniformly between mixed-test, pure-test and compute
rounds, masking every round with a fresh private unitary. The honest prover
answers each round with pairwise SWAP tests; the verifier aborts on any
failed test round or inconsistent compute answers.

The verifier draws every round kind and mask up front and decides only
after the last round, so a session runs as array steps that compute only
what the rounds read. The kinds are one code array (0 = m, 1 = p, 2 = c).
A pure-test round reads only its mask's first column, so it takes the QR of
that column alone, whose bits are the full QR's: the first Householder
reflector reads nothing else. The rounds are one stack of distinct
descriptions (I/d, the pure-test projectors, the compute copies, masked in
one ``with_unitary``) and one stack index per round. The honest prover
takes the overlaps of the stack in one product, the accept probabilities in
one ``swap_accept``, and its uniforms in one draw, which is what its
per-pair loop drew; it then finds each round's first rejection in O(1)
steps. The channel accounts all N rounds in one step and the verdict is
array reductions. Meters, the memory policy and the transcript are those of
the per-round loop.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar

import numpy as np

from . import qcore, qmeas
from .harness import (
    CopyOracle,
    CopyStream,
    ManyVsOneTask,
    Protocol,
    ProtocolAbort,
    ProverStrategy,
    Verifier,
    derive_rng,
    run_distinguisher,
    same_instance,
)

PURE = 1
MIXED = 0

OUTPUT_PURE = "pure"
OUTPUT_MIXED = "maximally mixed"

MASK_ENSEMBLES = ("haar", "clifford", "pauli")


KINDS = ("m", "p", "c")  # a round's kind code is its index here


def sample_masks(ensemble: str, d: int, kinds: np.ndarray, rng: np.random.Generator) -> tuple:
    """What the session reads of the masks of its non-mixed rounds (``kinds``
    holds codes into ``KINDS``), drawn in round order: column 0 of each
    pure-test round's mask, shape (p, d), and each compute round's mask,
    shape (c, d, d). Haar masks come from one
    ``standard_normal((p + c, 2, d, d))`` stack, a pure-test round's from
    the QR of its first column only, whose bits are the full QR's; Clifford
    and Pauli masks are drawn whole, as ``UnitaryOp``-checked operators."""
    pure = kinds[kinds != 0] == 1
    if ensemble == "haar":
        g = rng.standard_normal((len(pure), 2, d, d))
        return qcore.haar_factors(g[pure, :, :, :1])[:, :, 0], qcore.haar_factors(g[~pure])
    nq = int(round(math.log2(d)))
    if (1 << nq) != d:
        raise ValueError(f"{ensemble} masks need a power-of-two dimension, got {d}")
    if ensemble == "clifford":
        ops = [qmeas.sample_uniform_clifford(nq, rng) for _ in pure]
    else:
        labels = (qmeas.PauliLabel.from_index(nq, int(rng.integers(0, 4**nq))) for _ in pure)
        ops = [qcore.UnitaryOp(qmeas.dense_pauli(label)) for label in labels]
    masks = np.array([op.entries for op in ops], dtype=complex).reshape(len(pure), d, d)
    return masks[pure, :, 0], masks[~pure]


def prepare_rounds(kinds: np.ndarray, columns, masks, oracle_v: CopyOracle, cfg: PurityConfig) -> tuple:
    """The rounds' distinct descriptions as one (1 + p + c, d, d) stack, and
    round i's index into it, from ``sample_masks``'s ``columns`` and
    ``masks``: the mixed rounds share I/d (index 0), a pure-test round masks
    |0><0| (its mask's first column c gives c c+), and the compute rounds
    mask m oracle copies each, all in one ``CopyOracle.stream`` over their
    stacked masks (charged m per round)."""
    stack = [cfg.mixed.entries[None], columns[:, :, None] * columns[:, None, :].conj()]
    if len(masks):
        stack.append(oracle_v.stream(cfg.m, "compute-round", unitary=masks).state)
    pure, compute = kinds == 1, kinds == 2
    index = np.where(pure, pure.cumsum(), 0) + np.where(compute, len(columns) + compute.cumsum(), 0)
    return np.concatenate(stack), index


def swap_outcomes(states, rng: np.random.Generator):
    """Pairwise SWAP tests of copies 2i and 2i+1, one ``rng.random()`` each,
    drawn lazily as the outcomes are consumed.

    The accept probability is recomputed only when a pair differs from the
    previous one, so a round of m copies of one description costs one overlap.
    """
    a0 = b0 = p = None
    for a, b in zip(states[0::2], states[1::2]):
        if not (a is a0 and b is b0):
            a0, b0, p = a, b, qmeas.swap_probability(a, b)
        yield int(rng.random() < p)


def honest_purity_answer(states, rng: np.random.Generator) -> int:
    """PURE iff all m/2 pairwise SWAP tests accept; stops at the first rejection."""
    if len(states) % 2:
        raise ValueError("honest SWAP analysis needs an even number of copies")
    return PURE if all(swap_outcomes(states, rng)) else MIXED


def purity_verdict(kinds: np.ndarray, answers: np.ndarray) -> str:
    """Abort on the first failed test round, then on missing or inconsistent
    compute answers. A mixed-test round passes on a MIXED answer, a
    pure-test round on PURE: on the answer equal to its kind code."""
    failed = np.flatnonzero((kinds != 2) & (answers != kinds))
    if failed.size:
        raise ProtocolAbort(f"failed {KINDS[kinds[failed[0]]]}-test round")
    compute = answers[kinds == 2]
    if not compute.size:
        raise ProtocolAbort("no compute round occurred")
    if (compute != compute[0]).any():
        raise ProtocolAbort("inconsistent compute-round answers")
    return OUTPUT_PURE if compute[0] == PURE else OUTPUT_MIXED


class PurityProver(ProverStrategy):
    """A purity-IP prover: answers each round's m copies with one bit."""

    def answer_rounds(self, stack, index, cfg: PurityConfig, rng) -> list[int]:
        """One answer per round, each from ``answer_round`` on the round's m
        copies of ``stack[index[i]]``, in round order."""
        return [self.answer_round(CopyStream(stack[i], cfg.m), cfg, rng) for i in index]


class HonestSwapProver(PurityProver):
    """Distinguishes pure from maximally mixed via m/2 pairwise SWAP tests."""

    name = "honest-swap"

    def answer_round(self, states, cfg: PurityConfig, rng) -> int:
        return honest_purity_answer(states, rng)

    def answer_rounds(self, stack, index, cfg: PurityConfig, rng) -> list[int]:
        """``answer_round`` on every round, with the uniforms of all m/2 tests
        of all rounds drawn at once; each round reads the next ones up to its
        first rejection, a draw at or above its accept probability. The
        overlaps come from one stacked product and the accept probabilities
        from one ``swap_accept``. A round above every draw takes all its
        tests; any other scans the candidates, the draws at or above the
        lowest probability, and the first it reaches rejects it unless
        probabilities differ. The (PCG64) generator is then rewound to where
        the per-pair draws leave it."""
        f = stack.reshape(len(stack), 1, -1)
        overlaps = (f.conj() @ f.swapaxes(1, 2)).ravel()  # the bits of each np.vdot(state, state)
        accept = qmeas.swap_accept(overlaps)[index]
        tests, bg = cfg.m // 2, rng.bit_generator
        saved = bg.state
        draws = rng.random(len(index) * tests)
        low = np.flatnonzero(draws >= accept.min())
        at, values, top = low.tolist() + [len(draws)], draws[low].tolist(), float(draws.max())
        answers, used, k = [], 0, 0  # at[k] is the first candidate at or after draw `used`
        for p in accept.tolist():
            end = used + tests
            if p > top:
                k = bisect_left(at, end, k)
            else:
                while at[k] < end and values[k] < p:
                    k += 1
                if at[k] < end:  # rejected: draw at[k] is the round's last
                    answers.append(MIXED)
                    used, k = at[k] + 1, k + 1
                    continue
            answers.append(PURE)
            used = end
        bg.state = saved
        # advance() drops a buffered 32-bit half-draw, which random() leaves in place
        bg.state = {**saved, "state": bg.advance(used).state["state"]}
        return answers


class AlwaysPure(PurityProver):
    name = "always-pure"

    def answer_round(self, states, cfg, rng) -> int:
        return PURE


class AlwaysMixed(PurityProver):
    name = "always-mixed"

    def answer_round(self, states, cfg, rng) -> int:
        return MIXED


class UniformRandomAnswer(PurityProver):
    name = "uniform-random"

    def answer_round(self, states, cfg, rng) -> int:
        return int(rng.integers(0, 2))


class BestEffortLiar(PurityProver):
    """Runs the honest SWAP analysis, then inverts its answer on rounds whose
    SWAP-accept fraction sits closer to the mixed/compute prediction
    (1+1/d)/2 than to the pure prediction 1."""

    name = "best-effort-liar"

    def answer_round(self, states, cfg, rng) -> int:
        accepts = sum(swap_outcomes(states, rng))
        frac = accepts / (len(states) // 2)
        honest = PURE if accepts == len(states) // 2 else MIXED
        compute_prediction = (1 + 1 / cfg.d) / 2
        believes_compute = abs(frac - compute_prediction) <= abs(frac - 1.0)
        return 1 - honest if believes_compute else honest


ADVERSARIES = {
    cls.name: cls for cls in (AlwaysPure, AlwaysMixed, UniformRandomAnswer, BestEffortLiar)
}


class PurityVerifier(Verifier):
    """Runs Algorithm-style round scheduling and the abort/consistency rule."""

    def run(self, session, prover) -> str:
        cfg = self.cfg
        kind_seed = cfg.kind_seed
        rng_kinds = session.rng("round-kinds") if kind_seed is None else derive_rng(kind_seed, "round-kinds")
        # all kinds, then all masks: each generator draws nothing else, so the values are the per-round ones
        kinds = rng_kinds.integers(0, len(KINDS), size=cfg.N)
        masks = sample_masks(cfg.mask_ensemble, cfg.d, kinds, session.rng("masks"))
        stack, index = prepare_rounds(kinds, *masks, session.oracle_v, cfg)
        answers = list(prover.answer_rounds(stack, index, cfg, session.rng("prover")))
        if len(answers) != cfg.N or not set(answers) <= {PURE, MIXED}:
            raise ProtocolAbort("the prover must answer every round with one bit")
        answers = list(map(int, answers))
        session.channel.send_rounds(stack, index, cfg.m, answers, session.next_round(cfg.N))
        counts = np.bincount(kinds, minlength=len(KINDS)).tolist()
        self.extras["compute_rounds"] = counts[2]
        self.extras["round_kind_counts"] = dict(zip(KINDS, counts))
        return purity_verdict(kinds, np.array(answers))


@dataclass(frozen=True)
class PurityConfig(Protocol):
    """The purity IP's validated parameter set, which its verifier reads, with
    the experiment settings; builds sessions, tasks and judges."""

    d: int = 8
    delta: float = 1 / 3
    mask_ensemble: str = "haar"
    # kind_seed decouples round-kind randomness from the session seed so
    # meter structure can be compared across dimensions
    kind_seed: int | None = field(default=None, metadata={"cli": False})  # set by tests only
    trial_keys: ClassVar[dict] = {"adversary": "honest", "instance": "accept"}
    verifier: ClassVar[type] = PurityVerifier
    provers: ClassVar[dict] = {"honest": HonestSwapProver, **ADVERSARIES}

    def __post_init__(self):
        self.require("d", "delta")
        if self.mask_ensemble not in MASK_ENSEMBLES:
            raise ValueError(f"mask_ensemble must be one of {MASK_ENSEMBLES}")

    # Round count, per-round failure budget and SWAP-test copy budget, computed
    # once per config: a session reads them on every round.
    @cached_property
    def N(self) -> int:
        """N = ceil(max{72 ln(6/delta), 4 log2(2/delta)})."""
        return math.ceil(max(72 * math.log(6 / self.delta), 4 * math.log2(2 / self.delta)))

    @cached_property
    def delta_tilde(self) -> float:
        """delta_tilde = delta/(2N)."""
        return self.delta / (2 * self.N)

    @cached_property
    def m(self) -> int:
        """m comes from the exact SWAP analysis: maximally mixed copies pass a
        single test with probability (1+1/d)/2, so t = ceil(ln(1/dt)/ln(2/(1+1/d)))
        tests (m = 2t copies) push the wrong-answer probability below
        delta_tilde; pure copies never fail a test."""
        tests = math.ceil(math.log(1 / self.delta_tilde) / math.log(2 / (1 + 1 / self.d)))
        return 2 * tests

    @cached_property
    def mixed(self) -> qcore.DensityMatrix:
        """I/d, built once: the accept instance and the mixed rounds' description."""
        return qcore.maximally_mixed(self.d)

    def formula(self) -> dict:
        return {"N": self.N, "m": self.m, "delta_tilde": self.delta_tilde}

    def task(self) -> ManyVsOneTask:
        d = self.d
        return ManyVsOneTask(
            accept_instance=self.mixed,
            reject_sampler=lambda rng: qcore.sample_pure_state(d, rng).density(),
            accept_output=OUTPUT_MIXED,
        )

    def sample_instance(self, which: str, rng: np.random.Generator) -> qcore.DensityMatrix:
        if which == "accept":
            return self.mixed
        if which == "reject":
            return qcore.sample_pure_state(self.d, rng).density()
        raise ValueError(f"unknown instance source {which}")

    def judge(self, output, hidden) -> bool:
        """Exact validity: the answer must match the hidden instance type."""
        if qcore.purity(hidden) > 1 - 1e-9:
            return output == OUTPUT_PURE
        if same_instance(hidden, self.mixed):
            return output == OUTPUT_MIXED
        return True  # outside the promise both answers are valid


@dataclass(frozen=True)
class NogoConfig(Protocol):
    """The ``NogoDistinguisher`` built from the purity IP and its honest
    prover, run on accept (maximally mixed) or reject (Haar-random pure)
    instances. A trial's validity is whether the distinguisher named the
    instance's side, also when it answered "reject" because the simulated
    verifier aborted."""

    d: int = 8
    delta: float = 1 / 3
    trial_keys: ClassVar[dict] = {"instance": "accept"}
    answers_on_abort: ClassVar[bool] = True
    provers: ClassVar[dict] = PurityConfig.provers
    run_one = run_distinguisher  # the wrapped IP's session, answered by the distinguisher

    def __post_init__(self):
        self.task  # validates d and delta and probes the task before any session

    @cached_property
    def ip(self) -> PurityConfig:
        return PurityConfig(d=self.d, delta=self.delta, record_transcript=self.record_transcript)

    @cached_property
    def task(self) -> ManyVsOneTask:
        return self.ip.task()

    def formula(self) -> dict:
        return {"N": self.ip.N, "m": self.ip.m}

    def sample_instance(self, which: str, rng: np.random.Generator) -> qcore.DensityMatrix:
        return self.ip.sample_instance(which, rng)

    def judge(self, output, hidden) -> bool:
        return output == ("accept" if self.task.is_accept(hidden) else "reject")
