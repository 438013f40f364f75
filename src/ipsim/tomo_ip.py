"""Interactive quantum state tomography.

The prover performs full tomography at the tightened target 0.99*eps and
sends the hypothesis matrix; the verifier certifies closeness (promise gap
0.99*eps vs eps) and accepts or aborts. Ideal mode implements the
certification contract with the published query-count formulas as an
accounting model; sampled mode measures a Hilbert-Schmidt surrogate with its
own thresholds, routing the two-copy purity term through the delegation
channel. A rank-k variant changes only the accounting and instance promise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import qcore, qmeas
from .harness import (
    Channel,
    CopyOracle,
    DelegationAbort,
    ProtocolAbort,
    ProverStrategy,
    SessionResult,
    choose,
    delegated_measure,
    run_session,
)

CLOSE = 1
FAR = 0


@dataclass(frozen=True)
class TomoParams:
    epsilon: float
    delta: float
    d: int
    mode: str = "ideal"
    rank_k: int | None = None
    c_v: float = 1.0
    c_p: float = 1.0

    def __post_init__(self):
        if not (0 < self.epsilon < 1 and 0 < self.delta < 1):
            raise ValueError("epsilon, delta in (0,1)")
        if self.mode not in ("ideal", "sampled"):
            raise ValueError("mode is ideal or sampled")
        if self.rank_k is not None and self.mode != "ideal":
            raise ValueError("rank-k variant is ideal mode only")

    @property
    def delta_v(self) -> float:
        return self.delta / 2

    @property
    def delta_p(self) -> float:
        return self.delta / 2

    @property
    def prover_target(self) -> float:
        # sampled mode certifies in Hilbert-Schmidt; the honest prover
        # tightens its trace-norm target to eps/(2 sqrt(d)) so the surrogate
        # promise gap [(eps/2)^2/d, eps^2/d] stays wide enough to resolve
        # with a sane number of shots
        if self.mode == "ideal":
            return 0.99 * self.epsilon
        return 0.5 * self.epsilon / math.sqrt(self.d)

    def prover_query_budget(self) -> int:
        target = self.prover_target
        if self.rank_k is not None:
            return math.ceil(self.c_p * self.rank_k * self.d * math.log(1 / self.delta_p) / target**2)
        return math.ceil(self.c_p * self.d**2 * math.log(1 / self.delta_p) / target**2)

    def verifier_query_budget(self) -> int:
        if self.rank_k is not None:
            return math.ceil(self.c_v * self.rank_k * math.log(1 / self.delta_v) / self.epsilon**2)
        return math.ceil(self.c_v * self.d * math.log(1 / self.delta_v) / self.epsilon**2)


@dataclass(frozen=True)
class HypothesisState:
    matrix: qcore.DensityMatrix


def validate_hypothesis(raw, d: int) -> HypothesisState:
    """DensityMatrix invariants enforced on receipt; violations abort."""
    try:
        mat = np.asarray(raw, dtype=complex)
        if mat.shape != (d, d):
            raise qcore.DimensionError(f"hypothesis shape {mat.shape} != ({d},{d})")
        return HypothesisState(qcore.DensityMatrix(mat))
    except (ValueError, qcore.InvariantError, qcore.DimensionError) as err:
        raise ProtocolAbort(f"malformed hypothesis: {err}") from None


def _random_traceless_hermitian_direction(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = (g + g.conj().T) / 2
    h -= np.trace(h).real / d * np.eye(d)
    return h / qcore.schatten_norm(h, 1)


def perturbed_state_at_distance(
    rho: qcore.DensityMatrix,
    distance: float,
    rng: np.random.Generator,
    exact: bool = False,
) -> qcore.DensityMatrix:
    """Density matrix at 1-norm distance <= ``distance`` (== when ``exact``).

    Haar-random traceless Hermitian direction, scaled then projected back to
    the density set; the scale is bisected until the realized distance fits.
    """
    h = _random_traceless_hermitian_direction(rho.dim, rng)

    def at(t: float) -> qcore.DensityMatrix:
        return qcore.project_to_density(rho.entries + t * h)

    if not exact:
        t = distance * (0.4 + 0.5 * rng.random())
        cand = at(t)
        while qcore.one_norm_distance(cand, rho) > distance:
            t *= 0.7
            cand = at(t)
        return cand
    # bisection for an exact hit; expand until we bracket the target
    lo, hi = 0.0, distance
    while qcore.one_norm_distance(at(hi), rho) < distance:
        hi *= 2.0
        if hi > 64:  # direction saturates inside the set; try a fresh one
            return perturbed_state_at_distance(rho, distance, rng, exact=True)
    for _ in range(80):
        mid = (lo + hi) / 2
        if qcore.one_norm_distance(at(mid), rho) < distance:
            lo = mid
        else:
            hi = mid
    return at(hi)


def prover_tomography(
    oracle_p: CopyOracle,
    params: TomoParams,
    rng: np.random.Generator,
) -> HypothesisState:
    """Honest tomography at accuracy ``params.prover_target``.

    Ideal mode reads the hidden state, applies a seeded perturbation inside
    the target ball and charges the accounting budget; sampled mode measures
    real copies in random bases with least squares, projection and a
    split-sample certificate, doubling copies until certified.
    """
    target = params.prover_target
    if params.mode == "ideal":
        rho = oracle_p.ideal_peek()
        oracle_p.charge_accounting(params.prover_query_budget(), "tomography-accounting")
        return HypothesisState(perturbed_state_at_distance(rho, target, rng))
    return _sampled_tomography(oracle_p, target, params, rng)


def _linear_inversion(bases, freqs, d: int) -> qcore.DensityMatrix:
    rows, y = [], []
    for u, f in zip(bases, freqs):
        ue = u.entries
        for j in range(d):
            e = np.outer(ue[:, j], ue[:, j].conj())
            rows.append(e.conj().reshape(-1))
            y.append(f[j])
    a = np.array(rows)
    sol, *_ = np.linalg.lstsq(a, np.array(y), rcond=None)
    return qcore.project_to_density(sol.reshape(d, d))


def _sampled_tomography(oracle_p: CopyOracle, target: float, params: TomoParams, rng):
    d = params.d
    n_bases = 3 * d
    shots = max(64, 8 * d)
    for _ in range(14):
        bases = [qcore.sample_haar_unitary(d, rng) for _ in range(n_bases)]
        halves = []
        all_freqs = []
        for half in range(2):
            freqs = []
            for u in bases:
                copy_state = oracle_p.query(kind="tomography").consume()
                oracle_p.charge_accounting(shots - 1, "tomography")
                probs = qmeas.basis_probabilities(copy_state, u)
                counts = rng.multinomial(shots, probs)
                freqs.append(counts / shots)
            halves.append(_linear_inversion(bases, freqs, d))
            all_freqs.extend(freqs)
        split_dist = qcore.one_norm_distance(halves[0], halves[1])
        # split halves are independent estimates, so their gap is roughly
        # twice the pooled error; certify with a safety margin
        if split_dist * 0.9 <= target:
            pooled = _linear_inversion(bases + bases, all_freqs, d)
            return HypothesisState(pooled)
        shots *= 2
    raise ProtocolAbort("sampled tomography failed to certify its target")


def certify_closeness(
    oracle_v: CopyOracle,
    hyp: HypothesisState,
    params: TomoParams,
    rng: np.random.Generator,
    channel: Channel | None = None,
    tamper=None,
) -> int:
    """Distinguish ||rho - hyp||_1 <= 0.99 eps from > eps; promise-respecting.

    Ideal mode evaluates the distance exactly, answers the correct side of the
    promise except with probability delta_v, and charges the accounting
    budget. With ``tamper`` set, the answer is routed through the delegation
    contract: the trap check aborts except with the escape probability, in
    which case the tampered answer is delivered. Sampled mode estimates the
    Hilbert-Schmidt surrogate with real measurements.
    """
    eps = params.epsilon
    if params.mode == "ideal":
        rho = oracle_v.judge_peek()
        oracle_v.charge_accounting(params.verifier_query_budget(), "certification-accounting")
        dist = qcore.one_norm_distance(rho, hyp.matrix)
        midpoint = (0.99 * eps + eps) / 2
        truth = CLOSE if dist <= midpoint else FAR
        answer = truth if rng.random() >= params.delta_v else 1 - truth
        if tamper is None:
            return answer
        try:
            return delegated_measure(
                lambda states, r: answer,
                [],
                mode="ideal-cheat",
                tamper=tamper,
                delta=params.delta_v,
                rng=rng,
            )
        except DelegationAbort:
            raise ProtocolAbort("delegation trap check failed during certification")
    return _sampled_certify(oracle_v, hyp, params, rng, channel, tamper)


def _sampled_certify(oracle_v, hyp, params: TomoParams, rng, channel, tamper):
    eps, d = params.epsilon, params.d
    tau_lo = (0.5 * eps) ** 2 / d
    tau_hi = eps**2 / d
    tau_accept = (tau_lo + tau_hi) / 2
    margin = (tau_hi - tau_lo) / 2

    # two-copy purity of rho through the delegation channel (SWAP pairs)
    a1 = margin / 2
    pairs = math.ceil(2 * math.log(4 / params.delta_v) / a1**2)

    def swap_measurement(states, r):
        p_acc = qmeas.swap_accept_probability(states[0], states[1])
        hits = r.binomial(pairs, p_acc)
        return 2 * hits / pairs - 1

    try:
        pur_rho = delegated_measure(
            swap_measurement,
            oracle_v.stream(2 * pairs, "certify-swap", channel=channel),
            mode="ideal-honest" if tamper is None else "ideal-cheat",
            tamper=tamper,
            delta=params.delta_v,
            rng=rng,
        )
    except DelegationAbort:
        raise ProtocolAbort("delegation trap check failed during certification")

    # single-copy overlap Tr[rho rho_hat]: measure in the hypothesis eigenbasis
    a2 = margin / 4
    shots = math.ceil(math.log(4 / params.delta_v) / (2 * a2**2))
    spec = qcore.eig_sorted(hyp.matrix)
    one = oracle_v.query(kind="certify-overlap").consume()
    oracle_v.charge_accounting(shots - 1, "certify-overlap")
    probs = qmeas.basis_probabilities(one, spec.basis)
    counts = rng.multinomial(shots, probs)
    overlap = float(counts @ spec.values) / shots

    d2_sq = pur_rho + qcore.purity(hyp.matrix) - 2 * overlap
    return CLOSE if d2_sq <= tau_accept else FAR


def tomography_verdict(certification: int, hyp: HypothesisState) -> HypothesisState:
    if certification != CLOSE:
        raise ProtocolAbort("certification returned far")
    return hyp


class HonestTomographyProver(ProverStrategy):
    name = "honest-tomography"
    honest = True

    def produce_hypothesis(self, oracle_p, params: TomoParams, rng):
        return prover_tomography(oracle_p, params, rng).matrix.entries

    tamper = None


class MaximallyMixedLiar(ProverStrategy):
    """Sends the maximally mixed state no matter what the instance is."""

    name = "maximally-mixed-liar"
    honest = False
    tamper = None

    def produce_hypothesis(self, oracle_p, params, rng):
        return np.eye(params.d, dtype=complex) / params.d


class FixedOffsetLiar(ProverStrategy):
    """Sends a state at distance exactly 1.5 eps in a random direction."""

    name = "fixed-offset-liar"
    honest = False
    tamper = None

    def produce_hypothesis(self, oracle_p, params, rng):
        rho = oracle_p.ideal_peek()
        off = perturbed_state_at_distance(rho, 1.5 * params.epsilon, rng, exact=True)
        return off.entries


class DelegationTamperer(ProverStrategy):
    """Sends the correct hypothesis but tampers inside the delegated check."""

    name = "delegation-tamperer"
    honest = False

    def produce_hypothesis(self, oracle_p, params, rng):
        return prover_tomography(oracle_p, params, rng).matrix.entries

    @staticmethod
    def tamper(outcome):
        # force the certification outcome toward acceptance
        if isinstance(outcome, (int, np.integer)):
            return CLOSE
        return 1.0  # inflate a delegated purity estimate


ADVERSARIES = {
    cls.name: cls for cls in (MaximallyMixedLiar, FixedOffsetLiar, DelegationTamperer)
}


class TomoVerifier:
    memory_limit = 1

    def __init__(self, params: TomoParams):
        self.params = params
        self.extras = {
            "epsilon": params.epsilon,
            "delta": params.delta,
            "d": params.d,
            "mode": params.mode,
            "rank_k": params.rank_k,
            "prover_target": params.prover_target,
            "verifier_budget": params.verifier_query_budget(),
            "prover_budget": params.prover_query_budget(),
        }

    def run(self, session, prover):
        raw = prover.produce_hypothesis(session.oracle_p, self.params, session.rng("prover-tomo"))
        session.channel.send_structured("p->v", raw, session.next_round())
        hyp = validate_hypothesis(raw, self.params.d)
        bit = certify_closeness(
            session.oracle_v,
            hyp,
            self.params,
            session.rng("certify"),
            channel=session.channel if self.params.mode == "sampled" else None,
            tamper=getattr(prover, "tamper", None),
        )
        session.channel.send_bits("p->v", [bit], session.next_round())
        return tomography_verdict(bit, hyp).matrix


@dataclass
class TomoConfig:
    d: int = 4
    epsilon: float = 0.5
    delta: float = 1 / 3
    mode: str = "ideal"
    rank_k: int | None = None
    c_v: float = 1.0
    c_p: float = 1.0
    record_transcript: bool = False
    trial_keys: ClassVar[dict] = {"adversary": "honest"}

    def params(self) -> TomoParams:
        return TomoParams(
            epsilon=self.epsilon,
            delta=self.delta,
            d=self.d,
            mode=self.mode,
            rank_k=self.rank_k,
            c_v=self.c_v,
            c_p=self.c_p,
        )

    def formula(self) -> dict:
        p = self.params()
        return {
            "verifier_budget": p.verifier_query_budget(),
            "prover_budget": p.prover_query_budget(),
            "prover_target": p.prover_target,
        }

    def make_prover(self, name: str) -> ProverStrategy:
        return choose("adversary", name, {"honest": HonestTomographyProver, **ADVERSARIES})()

    def sample_instance(self, which: str, rng: np.random.Generator) -> qcore.DensityMatrix:
        if self.rank_k is not None:
            return qcore.sample_state(self.d, self.rank_k, rng)
        rank = int(rng.integers(1, self.d + 1))
        return qcore.sample_state(self.d, rank, rng)

    def run_one(self, hidden, prover, seed: int, prover_hidden=None) -> SessionResult:
        verifier = TomoVerifier(self.params())
        oracle_v = CopyOracle(hidden)
        oracle_p = CopyOracle(
            prover_hidden if prover_hidden is not None else hidden, ideal_access=True
        )
        channel = Channel("quantum", record_transcript=self.record_transcript)
        return run_session(verifier, prover, (oracle_v, oracle_p), channel, seed)

    def judge(self, output, hidden) -> bool:
        return qcore.one_norm_distance(output, hidden) <= self.epsilon
