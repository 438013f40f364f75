"""Interactive agnostic rank-k PSD/state tomography in trace distance.

The verifier collects a delegated purity estimate, a top-k spectrum estimate
and a prover-supplied spectral hypothesis (U', alpha'), then certifies the
hypothesis with two single-copy basis estimates and one inequality check
before outputting the rank-k truncation. Variants: ``standard`` (PSD output),
``state`` (normalized output, run at eps/2) and ``wide`` (the
2(sqrt(2k)+1)-agnostic check with the truncated purity, normalized output,
run at eps/2). Also houses the exact truncation/approximation bound oracles
used by the property suites.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import qcore, qmeas, tomo_ip
from .harness import (
    Channel,
    CopyOracle,
    Protocol,
    ProtocolAbort,
    ProverStrategy,
    Verifier,
    delegated_measure,
)


@dataclass(frozen=True)
class SpectralHypothesis:
    """Claimed eigendecomposition: rho' = U'+ diag(alpha') U'.

    Rows of ``u_prime`` are the claimed eigenvectors; measuring in this basis
    means computational-basis measurement of U' rho U'+.
    """

    u_prime: qcore.UnitaryOp
    alpha_prime: np.ndarray

    def measurement_basis(self) -> qcore.UnitaryOp:
        # columns of U'+ are the claimed eigenvectors
        return qcore.UnitaryOp(self.u_prime.entries.conj().T)

    def state_matrix(self) -> np.ndarray:
        u = self.u_prime.entries
        return (u.conj().T * self.alpha_prime) @ u

    def truncated(self, k: int, normalize: bool):
        alpha = np.zeros_like(self.alpha_prime)
        alpha[:k] = self.alpha_prime[:k]
        u = self.u_prime.entries
        mat = (u.conj().T * alpha) @ u
        mat = (mat + mat.conj().T) / 2
        if normalize:
            tr = alpha.sum()
            if tr <= 1e-12:
                raise ProtocolAbort("cannot normalize a near-zero truncation")
            return qcore.DensityMatrix(mat / tr)
        return qcore.SubnormalizedPSD(mat)


def validate_spectral_hypothesis(raw_u, raw_alpha, d: int) -> SpectralHypothesis:
    """Line-5 receipt validation; any violation is a verifier abort."""
    try:
        u = qcore.UnitaryOp(np.asarray(raw_u, dtype=complex))
        if u.dim != d:
            raise qcore.DimensionError(f"hypothesis unitary dim {u.dim} != {d}")
    except (ValueError, qcore.InvariantError, qcore.DimensionError) as err:
        raise ProtocolAbort(f"invalid U': {err}") from None
    alpha = np.asarray(raw_alpha, dtype=float)
    if alpha.ndim != 1 or alpha.size > d:
        raise ProtocolAbort("invalid alpha': wrong shape")
    if np.any(alpha < -1e-9) or np.any(alpha > 1 + 1e-9):
        raise ProtocolAbort("invalid alpha': entries outside [0, 1]")
    if np.any(np.diff(alpha) > 1e-9):
        raise ProtocolAbort("invalid alpha': not sorted non-increasing")
    if alpha.sum() > 1 + 1e-9:
        raise ProtocolAbort("invalid alpha': sums above 1")
    full = np.zeros(d)
    full[: alpha.size] = np.clip(alpha, 0.0, None)
    return SpectralHypothesis(u, full)


def delegated_purity_estimate(
    oracle_v: CopyOracle,
    cfg: LowRankConfig,
    rng: np.random.Generator,
    channel: Channel | None = None,
    tamper=None,
) -> float:
    """Purity estimate within eps1 with probability >= 1 - delta_tilde.

    Ideal mode returns the exact purity plus seeded noise, drawn at the eps2
    scale (eps2 = run_epsilon^2 / (96 k) is well inside eps1 =
    run_epsilon / 10), and charges the accounting budget. Sampled mode runs
    SWAP pairs through the delegation channel. Either answer comes through
    the delegation contract, where a prover's ``tamper`` is caught except
    with the escape probability.
    """
    pairs = cfg.purity_pairs_budget()
    if cfg.mode == "ideal":
        oracle_v.meter.charge(2 * pairs, "purity-accounting")
        noisy = qcore.purity(oracle_v.judge_peek()) + cfg.eps2 * rng.uniform(-1.0, 1.0)
        measurement, copies = (lambda states, r: noisy), []
    else:
        measurement = qmeas.swap_purity_estimate
        copies = oracle_v.stream(2 * pairs, "purity-swap", channel=channel)
    return delegated_measure(
        measurement, copies, tamper=tamper, delta=2 * cfg.delta_tilde, rng=rng
    )


def topk_spectrum_estimate(
    oracle_v: CopyOracle, cfg: LowRankConfig, rng: np.random.Generator
) -> np.ndarray:
    """Top-k eigenvalue estimate, exact + perturbation with total variation <= eps1.

    Ideal-contract only; charges ceil(k^2 ln(1/dt) / eps1^2).
    """
    oracle_v.meter.charge(cfg.topk_budget(), "topk-accounting")
    spec = qcore.eig_sorted(oracle_v.judge_peek())
    alpha = spec.values[: cfg.k]
    noise = rng.uniform(-1.0, 1.0, size=cfg.k)
    total = np.abs(noise).sum()
    if total > 0:
        noise *= cfg.eps1 * rng.random() / total
    est = np.clip(alpha + noise, 0.0, 1.0)
    return np.sort(est)[::-1]


def prover_spectral_tomography(
    oracle_p: CopyOracle, cfg: LowRankConfig, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Honest prover output (U', alpha') meeting both completeness conditions.

    Ideal mode perturbs the exact eigendecomposition, shrinking the
    perturbation until (a) sqrt(2k)||rho'-rho||_2 + 1 - p - (1 - sum_k alpha)
    <= eps2 and (b) ||rho'-rho||_1 <= eps2 both hold with exact values.
    Sampled mode runs generic sampled tomography at target eps2.
    """
    k, d = cfg.k, cfg.d
    if cfg.mode == "sampled":
        hyp = tomo_ip._sampled_tomography(oracle_p, cfg.eps2, d, rng)
        spec = qcore.eig_sorted(hyp)
        return spec.basis.entries.conj().T, spec.values
    rho = oracle_p.ideal_peek()
    oracle_p.meter.charge(cfg.prover_budget(), "spectral-tomography-accounting")
    spec = qcore.eig_sorted(rho)
    alpha_true = spec.values
    top_sum = alpha_true[:k].sum()
    scale = cfg.eps2 / 4
    for _ in range(40):
        dir_h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        dir_h = (dir_h - dir_h.conj().T) / 2  # anti-Hermitian generator
        rot = _expm_antihermitian(scale * dir_h)
        u_cols = rot @ spec.basis.entries
        alpha = np.clip(alpha_true + scale * rng.uniform(-1, 1, size=d), 0.0, 1.0)
        alpha = np.sort(alpha)[::-1]
        alpha /= max(alpha.sum(), 1.0)  # keep a valid truncated spectrum
        rho_prime = (u_cols * alpha) @ u_cols.conj().T
        dist1 = qcore.schatten_norm(rho_prime - rho.entries, 1)
        dist2 = qcore.schatten_norm(rho_prime - rho.entries, 2)
        proj = u_cols[:, :k] @ u_cols[:, :k].conj().T
        p_val = float(np.real(np.vdot(proj, rho.entries)))
        cond_a = math.sqrt(2 * k) * dist2 + 1 - p_val - (1 - top_sum) <= cfg.eps2
        cond_b = dist1 <= cfg.eps2
        if cond_a and cond_b:
            return u_cols.conj().T, alpha
        scale *= 0.5
    # fall back to the exact decomposition, which satisfies both with margin 0
    return spec.basis.entries.conj().T, np.clip(alpha_true, 0.0, 1.0)


def _expm_antihermitian(a: np.ndarray) -> np.ndarray:
    """exp(A) for anti-Hermitian A via the eigendecomposition of iA."""
    h = 1j * a
    vals, vecs = np.linalg.eigh((h + h.conj().T) / 2)
    return (vecs * np.exp(-1j * vals)) @ vecs.conj().T


def verifier_basis_estimates(
    oracle_v: CopyOracle,
    hyp: SpectralHypothesis,
    cfg: LowRankConfig,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Single-copy estimates (o_hat, p_hat) in the claimed eigenbasis.

    o = tr[diag(alpha') U' rho U'+], p = tr[Pi U' rho U'+] with Pi the
    projector on the top-k claimed eigenvectors; Hoeffding shot count
    ceil(ln(2/dt) / (2 eps2^2)) for each.
    """
    shots = cfg.basis_shots()
    basis = hyp.measurement_basis()
    state = oracle_v.stream(2 * shots, "basis-estimates")[0]
    probs = qmeas.basis_probabilities(state, basis)
    counts_o = rng.multinomial(shots, probs)
    counts_p = rng.multinomial(shots, probs)
    o_hat = float(counts_o @ hyp.alpha_prime) / shots
    p_hat = float(counts_p[: cfg.k].sum()) / shots
    return o_hat, p_hat


def lowrank_check(
    pur_prime: float,
    pur_hat: float,
    o_hat: float,
    p_hat: float,
    alpha_hat_topk: np.ndarray,
    cfg: LowRankConfig,
    alpha_prime: np.ndarray | None = None,
) -> bool:
    """The acceptance inequality; radicand clamped at zero against noise.

    standard: sqrt(2k (pur' + pur_hat - 2 o_hat)) + 1 - p_hat
              <= 1 - sum(alpha_hat) + f
    wide:     with pur'_{1:k} substituted, against
              (sqrt(2k) + 1) * tail(alpha') + run_epsilon.
    """
    k = cfg.k
    radicand = max(0.0, pur_prime + pur_hat - 2 * o_hat)
    lhs = math.sqrt(2 * k * radicand) + 1 - p_hat
    if cfg.variant == "wide":
        if alpha_prime is None:
            raise ValueError("wide variant needs the transmitted spectrum")
        tail = float(alpha_prime[k:].sum())
        return lhs <= (math.sqrt(2 * k) + 1) * tail + cfg.run_epsilon
    return lhs <= 1 - float(np.sum(alpha_hat_topk)) + cfg.f


# ---------------------------------------------------------------------------
# Exact bound oracles for the truncation/approximation lemma suites
# ---------------------------------------------------------------------------


def truncation_lower_bound_margin(rho: qcore.DensityMatrix, a: np.ndarray, k: int, p) -> float:
    """Margin of ||rho - A||_p^p >= sum_{i>k} alpha_i^p for PSD A of rank <= k.

    For p = inf the statement is ||rho - A||_inf >= alpha_{k+1}.
    """
    alpha = qcore.eig_sorted(rho).values
    if p == np.inf:
        return qcore.schatten_norm(rho.entries - a, np.inf) - (alpha[k] if k < rho.dim else 0.0)
    tail = float((np.clip(alpha[k:], 0.0, None) ** p).sum())
    return qcore.schatten_norm(rho.entries - a, p) ** p - tail


def truncation_approx_margin(
    rho: qcore.DensityMatrix, sigma: qcore.DensityMatrix, k: int, p, eps: float
) -> float:
    """Margin of ||rho - sigma_{1:k}||_p <= ||diag(alpha_{k+1:d})||_p + 2 eps,
    for any state sigma with ||sigma - rho||_p <= eps."""
    actual = qcore.schatten_norm(sigma.entries - rho.entries, p)
    if actual > eps + 1e-9:
        raise ValueError(f"precondition ||sigma-rho||_p = {actual} > eps = {eps}")
    sigma_k = qcore.truncate_rank_k(sigma, k)
    alpha = qcore.eig_sorted(rho).values
    tail = np.clip(alpha[k:], 0.0, None)
    if p == np.inf:
        tail_norm = float(tail.max()) if tail.size else 0.0
    else:
        tail_norm = float((tail**p).sum() ** (1 / p)) if tail.size else 0.0
    lhs = qcore.schatten_norm(rho.entries - sigma_k.entries, p)
    return tail_norm + 2 * eps - lhs


# ---------------------------------------------------------------------------
# Prover strategies
# ---------------------------------------------------------------------------


class HonestSpectralProver(ProverStrategy):
    name = "honest-spectral"

    def produce_spectral_hypothesis(self, oracle_p, cfg, rng):
        return prover_spectral_tomography(oracle_p, cfg, rng)


class RandomBasisLiar(ProverStrategy):
    """Correct spectrum, freshly random eigenbasis."""

    name = "random-basis-liar"

    def produce_spectral_hypothesis(self, oracle_p, cfg, rng):
        alpha = np.clip(qcore.eig_sorted(oracle_p.ideal_peek()).values, 0.0, 1.0)
        u = qcore.sample_haar_unitary(cfg.d, rng)
        return u.entries, alpha


class ForeignSpectrumLiar(ProverStrategy):
    """Correct eigenbasis, spectrum of an unrelated random state."""

    name = "foreign-spectrum-liar"

    def produce_spectral_hypothesis(self, oracle_p, cfg, rng):
        spec = qcore.eig_sorted(oracle_p.ideal_peek())
        other = qcore.sample_state(cfg.d, cfg.d, rng)
        alpha = np.clip(qcore.eig_sorted(other).values, 0.0, 1.0)
        return spec.basis.entries.conj().T, alpha


class NonUnitaryLiar(ProverStrategy):
    """Breaks the line-5 unitarity validation deterministically."""

    name = "non-unitary-liar"

    def produce_spectral_hypothesis(self, oracle_p, cfg, rng):
        u = qcore.sample_haar_unitary(cfg.d, rng).entries.copy()
        u[0, :] *= 1.05
        alpha = np.clip(qcore.eig_sorted(oracle_p.ideal_peek()).values, 0.0, 1.0)
        return u, alpha


class UnsortedSpectrumLiar(ProverStrategy):
    """Breaks the line-5 spectrum validation deterministically."""

    name = "unsorted-spectrum-liar"

    def produce_spectral_hypothesis(self, oracle_p, cfg, rng):
        spec = qcore.eig_sorted(oracle_p.ideal_peek())
        alpha = np.zeros(cfg.d)
        alpha[0], alpha[1] = 0.3, 0.7  # explicitly increasing
        return spec.basis.entries.conj().T, alpha


ADVERSARIES = {
    cls.name: cls
    for cls in (RandomBasisLiar, ForeignSpectrumLiar, NonUnitaryLiar, UnsortedSpectrumLiar)
}


class LowRankVerifier(Verifier):
    def run(self, session, prover):
        p = self.cfg
        pur_hat = delegated_purity_estimate(
            session.oracle_v,
            p,
            session.rng("purity"),
            channel=session.channel,
            tamper=prover.tamper,
        )
        alpha_hat = topk_spectrum_estimate(session.oracle_v, p, session.rng("topk"))
        raw_u, raw_alpha = prover.produce_spectral_hypothesis(
            session.oracle_p, p, session.rng("prover")
        )
        session.channel.send_structured("p->v", {"u": raw_u, "alpha": raw_alpha}, session.next_round())
        hyp = validate_spectral_hypothesis(raw_u, raw_alpha, p.d)
        if p.variant == "wide":
            pur_prime = float((hyp.alpha_prime[: p.k] ** 2).sum())
        else:
            pur_prime = float((hyp.alpha_prime**2).sum())
        o_hat, p_hat = verifier_basis_estimates(session.oracle_v, hyp, p, session.rng("basis"))
        self.extras["estimates"] = {
            "pur_hat": pur_hat,
            "pur_prime": pur_prime,
            "o_hat": o_hat,
            "p_hat": p_hat,
            "alpha_hat": alpha_hat.tolist(),
        }
        ok = lowrank_check(
            pur_prime, pur_hat, o_hat, p_hat, alpha_hat, p, alpha_prime=hyp.alpha_prime
        )
        if not ok:
            raise ProtocolAbort("rank-k certification inequality failed")
        return hyp.truncated(p.k, normalize=p.variant != "standard")


@dataclass(frozen=True)
class LowRankConfig(Protocol):
    """The rank-k tomography IP's validated parameter set, which its verifier
    reads, with the experiment settings."""

    d: int = 4
    k: int = 1
    epsilon: float = 0.6
    delta: float = 1 / 3
    mode: str = "ideal"
    variant: str = "standard"
    verifier: ClassVar[type] = LowRankVerifier
    provers: ClassVar[dict] = {"honest": HonestSpectralProver, **ADVERSARIES}

    def __post_init__(self):
        self.require("d")
        if not 1 <= self.k <= self.d:
            raise ValueError(f"k must be in [1, d] = [1, {self.d}]")
        self.require("epsilon", "delta")
        if self.variant not in ("standard", "wide", "state"):
            raise ValueError("variant must be one of standard, wide, state")
        self.require("mode")

    @property
    def run_epsilon(self) -> float:
        """Accuracy the pipeline actually runs at: eps/2 for normalized outputs."""
        return self.epsilon / 2 if self.variant in ("state", "wide") else self.epsilon

    @property
    def eps1(self) -> float:
        return self.run_epsilon / 10

    @property
    def eps2(self) -> float:
        return self.run_epsilon**2 / (96 * self.k)

    @property
    def f(self) -> float:
        return math.sqrt(6 * self.k * self.eps2) + 2 * self.eps1 + self.eps2

    @property
    def delta_tilde(self) -> float:
        return self.delta / 5

    def purity_pairs_budget(self) -> int:
        return math.ceil(math.log(1 / self.delta_tilde) / self.eps1**2)

    def topk_budget(self) -> int:
        return math.ceil(self.k**2 * math.log(1 / self.delta_tilde) / self.eps1**2)

    def prover_budget(self) -> int:
        return math.ceil(self.d**2 * math.log(1 / self.delta_tilde) / self.eps2**2)

    def basis_shots(self) -> int:
        return math.ceil(math.log(2 / self.delta_tilde) / (2 * self.eps2**2))

    def formula(self) -> dict:
        return {
            "eps1": self.eps1,
            "eps2": self.eps2,
            "f": self.f,
            "delta_tilde": self.delta_tilde,
            "purity_pairs_budget": self.purity_pairs_budget(),
            "topk_budget": self.topk_budget(),
            "prover_budget": self.prover_budget(),
            "basis_shots": self.basis_shots(),
        }

    def sample_instance(self, which: str, rng: np.random.Generator) -> qcore.DensityMatrix:
        return qcore.sample_state(self.d, self.d, rng)

    def optimal_loss(self, hidden) -> float:
        alpha = qcore.eig_sorted(hidden).values
        return float(np.clip(alpha[self.k :], 0.0, None).sum())

    def judge(self, output, hidden) -> bool:
        dist = qcore.one_norm_distance(output, hidden)
        tail = self.optimal_loss(hidden)
        if self.variant == "standard":
            return dist <= tail + self.epsilon + 1e-9
        if self.variant == "state":
            return dist <= 2 * tail + self.epsilon + 1e-9
        return dist <= 2 * (math.sqrt(2 * self.k) + 1) * tail + self.epsilon + 1e-9
