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
    Protocol,
    ProtocolAbort,
    ProverStrategy,
    Verifier,
    delegated_measure,
)

CLOSE = 1
FAR = 0


def validate_hypothesis(raw, d: int) -> qcore.DensityMatrix:
    """DensityMatrix invariants enforced on receipt; violations abort."""
    try:
        mat = np.asarray(raw, dtype=complex)
        if mat.shape != (d, d):
            raise qcore.DimensionError(f"hypothesis shape {mat.shape} != ({d},{d})")
        return qcore.DensityMatrix(mat)
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
    cfg: TomoConfig,
    rng: np.random.Generator,
) -> qcore.DensityMatrix:
    """Honest tomography at accuracy ``cfg.prover_target``.

    Ideal mode reads the hidden state, applies a seeded perturbation inside
    the target ball and charges the accounting budget; sampled mode measures
    one attempt of ``sampled_tomography_shots`` copies per basis in 3d Haar
    bases, within the target in one-norm except with probability delta_p,
    and returns the projected least-squares estimate.
    """
    target = cfg.prover_target
    if cfg.mode == "ideal":
        rho = oracle_p.ideal_peek()
        oracle_p.meter.charge(cfg.prover_query_budget(), "tomography-accounting")
        return perturbed_state_at_distance(rho, target, rng)
    return _sampled_tomography(oracle_p, target, cfg.d, cfg.delta_p, rng)


def sampled_tomography_shots(target: float, d: int, delta: float) -> int:
    """Shots per basis, m, of sampled tomography in L = 3d Haar bases whose
    estimate is within ``target`` of the state in one-norm except with
    probability ``delta``: m = ceil((d-1)^2 (d+1)^2 / (d (2d-3) delta
    target^2)), so N = 3d m copies in all.

    The estimate is projected least squares (Guta, Kahn, Kueng and Tropp,
    arXiv:1809.11162): X minimises sum_bj (tr[E_bj X] - f_bj)^2 over the
    projectors E_bj onto the columns of the bases and their frequencies
    f_bj, and the output is P(X), the Frobenius-nearest density matrix.

    1. Norms. P projects onto a convex set that holds rho, so
       ||P(X) - rho||_2 <= ||X - rho||_2, and ||A||_1 <= sqrt(d) ||A||_2 for
       d x d matrices: the target holds once ||X - rho||_2^2 <= target^2 / d.
    2. Noise. X - rho = F^-1 G, with the frame F = sum_b Delta_b (Delta_b
       pinches onto basis b's diagonal) and G = sum_bj (f_bj - p_bj) E_bj,
       traceless and of mean zero. Given the bases, E||X - rho||_2^2 =
       tr[F^-1 C F^-1], C the covariance of G; basis b adds
       (1 - sum_j p_bj^2) / m <= (1 - 1/d) / m to tr C, the bound met at the
       maximally mixed state.
    3. Frame. For a Haar basis E[Delta_b] = (id + |I><I|) / (d + 1), so
       E[F] = L / (d + 1) on traceless matrices, and at that mean frame the
       maximally mixed state gives E||X - rho||_2^2 = (d+1)^2 (d-1) / (d N).
       A random frame raises the mean of its inverse (Jensen). Compared with
       a Wishart matrix of n = L (d - 1) rank-one terms in p = d^2 - 1
       dimensions, the factor is n / (n - p - 1) = 3(d-1) / (2d-3): 3 at
       d = 2, 1.8 at d = 4, 1.62 at d = 8. Each basis adds d - 1 orthogonal
       terms, which condition F better than independent ones; Monte-Carlo
       means at the maximally mixed state are about 1.9, 1.6 and 1.54, and
       lower at pure states (the tests check the factor).
    4. Tail. By Markov's inequality over the bases and the counts,
       ||X - rho||_2^2 exceeds its mean / delta with probability at most
       delta, so N = 3 (d-1)^2 (d+1)^2 / ((2d-3) delta target^2) suffices.
    """
    return math.ceil((d - 1) ** 2 * (d + 1) ** 2 / (d * (2 * d - 3) * delta * target**2))


def _sampled_tomography(oracle_p: CopyOracle, target: float, d: int, delta: float, rng):
    """One attempt in 3d Haar bases, sized by ``sampled_tomography_shots``:
    one draw of the bases, one multinomial, one least-squares solve and one
    projection."""
    n_bases = 3 * d
    shots = sampled_tomography_shots(target, d, delta)
    bases = qcore.sample_haar_unitaries(n_bases, d, rng)
    # design-matrix row (b, j) is the flattened conjugate of the projector
    # onto column j of basis b, so row . vec(rho) = p_bj
    cols = bases.swapaxes(1, 2)
    a = (cols[:, :, :, None] * cols[:, :, None, :].conj()).conj().reshape(-1, d * d)
    # every copy has the hidden state's one description, so one table of
    # Born probabilities serves the attempt, and the rows of one multinomial
    # draw the counts of the bases in turn
    copy_state = oracle_p.stream(n_bases * shots, "tomography")[0]
    probs = qmeas.basis_probabilities(copy_state, bases)
    freqs = rng.multinomial(shots, probs) / shots
    sol, *_ = np.linalg.lstsq(a, freqs.reshape(-1), rcond=None)
    return qcore.project_to_density(sol.reshape(d, d))


def certify_closeness(
    oracle_v: CopyOracle,
    hyp: qcore.DensityMatrix,
    cfg: TomoConfig,
    rng: np.random.Generator,
    channel: Channel | None = None,
    tamper=None,
) -> int:
    """Distinguish ||rho - hyp||_1 <= 0.99 eps from > eps; promise-respecting.

    Ideal mode evaluates the distance exactly, answers the correct side of the
    promise except with probability delta_v, and charges the accounting
    budget; the answer comes through the delegation contract
    (``delegated_measure``), where a prover's ``tamper`` is caught except
    with the escape probability. Sampled mode estimates the Hilbert-Schmidt
    surrogate with real measurements.
    """
    eps = cfg.epsilon
    if cfg.mode == "ideal":
        rho = oracle_v.judge_peek()
        oracle_v.meter.charge(cfg.verifier_query_budget(), "certification-accounting")
        dist = qcore.one_norm_distance(rho, hyp)
        midpoint = (0.99 * eps + eps) / 2
        truth = CLOSE if dist <= midpoint else FAR
        answer = truth if rng.random() >= cfg.delta_v else 1 - truth
        return delegated_measure(
            lambda states, r: answer, [], tamper=tamper, delta=cfg.delta_v, rng=rng
        )
    return _sampled_certify(oracle_v, hyp, cfg, rng, channel, tamper)


def _sampled_certify(oracle_v, hyp, cfg: TomoConfig, rng, channel, tamper):
    eps, d = cfg.epsilon, cfg.d
    tau_lo = (0.5 * eps) ** 2 / d
    tau_hi = eps**2 / d
    tau_accept = (tau_lo + tau_hi) / 2
    margin = (tau_hi - tau_lo) / 2

    # two-copy purity of rho through the delegation channel (SWAP pairs)
    a1 = margin / 2
    pairs = math.ceil(2 * math.log(4 / cfg.delta_v) / a1**2)
    pur_rho = delegated_measure(
        qmeas.swap_purity_estimate,
        oracle_v.stream(2 * pairs, "certify-swap", channel=channel),
        tamper=tamper,
        delta=cfg.delta_v,
        rng=rng,
    )

    # single-copy overlap Tr[rho rho_hat]: measure in the hypothesis eigenbasis
    a2 = margin / 4
    shots = math.ceil(math.log(4 / cfg.delta_v) / (2 * a2**2))
    spec = qcore.eig_sorted(hyp)
    one = oracle_v.stream(shots, "certify-overlap")[0]
    probs = qmeas.basis_probabilities(one, spec.basis)
    counts = rng.multinomial(shots, probs)
    overlap = float(counts @ spec.values) / shots

    d2_sq = pur_rho + qcore.purity(hyp) - 2 * overlap
    return CLOSE if d2_sq <= tau_accept else FAR


class HonestTomographyProver(ProverStrategy):
    name = "honest-tomography"

    def produce_hypothesis(self, oracle_p, cfg: TomoConfig, rng):
        return prover_tomography(oracle_p, cfg, rng).entries


class MaximallyMixedLiar(ProverStrategy):
    """Sends the maximally mixed state no matter what the instance is."""

    name = "maximally-mixed-liar"

    def produce_hypothesis(self, oracle_p, cfg, rng):
        return np.eye(cfg.d, dtype=complex) / cfg.d


class FixedOffsetLiar(ProverStrategy):
    """Sends a state at distance exactly 1.5 eps in a random direction."""

    name = "fixed-offset-liar"

    def produce_hypothesis(self, oracle_p, cfg, rng):
        rho = oracle_p.ideal_peek()
        off = perturbed_state_at_distance(rho, 1.5 * cfg.epsilon, rng, exact=True)
        return off.entries


class DelegationTamperer(ProverStrategy):
    """Sends the correct hypothesis but tampers inside the delegated check."""

    name = "delegation-tamperer"

    def produce_hypothesis(self, oracle_p, cfg, rng):
        return prover_tomography(oracle_p, cfg, rng).entries

    @staticmethod
    def tamper(outcome):
        # force the certification outcome toward acceptance
        if isinstance(outcome, (int, np.integer)):
            return CLOSE
        return 1.0  # inflate a delegated purity estimate


ADVERSARIES = {
    cls.name: cls for cls in (MaximallyMixedLiar, FixedOffsetLiar, DelegationTamperer)
}


class TomoVerifier(Verifier):
    def run(self, session, prover):
        raw = prover.produce_hypothesis(session.oracle_p, self.cfg, session.rng("prover-tomo"))
        session.channel.send_structured("p->v", raw, session.next_round())
        hyp = validate_hypothesis(raw, self.cfg.d)
        bit = certify_closeness(
            session.oracle_v,
            hyp,
            self.cfg,
            session.rng("certify"),
            channel=session.channel,
            tamper=prover.tamper,
        )
        session.channel.send_bits("p->v", [bit], session.next_round())
        if bit != CLOSE:
            raise ProtocolAbort("certification returned far")
        return hyp


@dataclass(frozen=True)
class TomoConfig(Protocol):
    """The tomography IP's validated parameter set, which its verifier reads,
    with the experiment settings."""

    d: int = 4
    epsilon: float = 0.5
    delta: float = 1 / 3
    mode: str = "ideal"
    rank_k: int | None = None
    verifier: ClassVar[type] = TomoVerifier
    provers: ClassVar[dict] = {"honest": HonestTomographyProver, **ADVERSARIES}

    def __post_init__(self):
        self.require("d", "epsilon", "delta", "mode")
        if self.rank_k is not None and not 1 <= self.rank_k <= self.d:
            raise ValueError(f"rank_k must be in [1, d] = [1, {self.d}]")
        if self.rank_k is not None and self.mode != "ideal":
            raise ValueError("rank_k must be unset in sampled mode (the rank-k variant is ideal only)")

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
        if self.mode == "sampled":
            return 3 * self.d * sampled_tomography_shots(target, self.d, self.delta_p)
        if self.rank_k is not None:
            return math.ceil(self.rank_k * self.d * math.log(1 / self.delta_p) / target**2)
        return math.ceil(self.d**2 * math.log(1 / self.delta_p) / target**2)

    def verifier_query_budget(self) -> int:
        if self.rank_k is not None:
            return math.ceil(self.rank_k * math.log(1 / self.delta_v) / self.epsilon**2)
        return math.ceil(self.d * math.log(1 / self.delta_v) / self.epsilon**2)

    def formula(self) -> dict:
        return {
            "verifier_budget": self.verifier_query_budget(),
            "prover_budget": self.prover_query_budget(),
            "prover_target": self.prover_target,
        }

    def sample_instance(self, which: str, rng: np.random.Generator) -> qcore.DensityMatrix:
        if self.rank_k is not None:
            return qcore.sample_state(self.d, self.rank_k, rng)
        rank = int(rng.integers(1, self.d + 1))
        return qcore.sample_state(self.d, rank, rng)

    def judge(self, output, hidden) -> bool:
        return qcore.one_norm_distance(output, hidden) <= self.epsilon
