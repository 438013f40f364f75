"""Interactive proof for 8-agnostic stabilizer state learning.

The sixth-moment quantity a = 2^-n sum_P <psi|P|psi>^6 sandwiches the optimal
stabilizer loss: 1 - a^(1/6) <= l* <= (4/3)(1-a), with upper/lower ratio at
most 8. The verifier estimates the loss of the prover's candidate directly
and the moment via delegated Bell sampling, then accepts iff the loss beats
the moment-derived upper bound plus slack. The honest prover here is a
brute-force enumerator over all pure stabilizer states (n <= 4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import qcore, qmeas
from .harness import (
    Channel,
    CopyOracle,
    DelegationAbort,
    ProtocolAbort,
    ProverStrategy,
    SessionResult,
    delegated_measure,
    run_session,
)

STABILIZER_COUNTS = {1: 6, 2: 60, 3: 1080, 4: 36720}


@dataclass(frozen=True)
class StabParams:
    epsilon: float
    delta: float
    n: int
    mode: str = "ideal"

    def __post_init__(self):
        if not (0 < self.epsilon < 1 and 0 < self.delta < 1):
            raise ValueError("epsilon, delta in (0,1)")
        if self.mode not in ("ideal", "sampled"):
            raise ValueError("mode in {ideal, sampled}")

    @property
    def eps1(self) -> float:
        return self.epsilon / 5

    @property
    def eps2(self) -> float:
        return self.epsilon / 5

    @property
    def eps3(self) -> float:
        return 3 * self.epsilon / 20

    @property
    def delta1(self) -> float:
        return self.delta / 3

    delta2 = delta1
    delta3 = delta1

    def loss_shots(self) -> int:
        return math.ceil(math.log(2 / self.delta2) / (2 * self.eps2**2))

    def a3_samples(self) -> int:
        # per-sample values lie in [-1, 1]: range-2 Hoeffding constant 2
        return math.ceil(2 * math.log(2 / self.delta3) / self.eps3**2)


def exact_A3(psi: qcore.PureState) -> float:
    """2^-n sum over all 4^n Hermitian Paulis of <psi|P|psi>^6, exactly."""
    n = qmeas.num_qubits(psi)
    if n > 6:
        raise qcore.DimensionError("exact moment sum capped at n = 6")
    exps = qmeas.pauli_expectations(psi)
    return float((exps**6).sum() / (1 << n))


def stab_bounds(a: float) -> tuple[float, float]:
    """(UB, LB) on the optimal stabilizer loss from the sixth moment a."""
    if not 0 <= a <= 1:
        raise ValueError("a in [0,1]")
    ub = (4.0 / 3.0) * (1.0 - a)
    lb = 1.0 - a ** (1.0 / 6.0)
    return ub, lb


# ---------------------------------------------------------------------------
# Stabilizer state enumeration (n <= 4)
# ---------------------------------------------------------------------------


def _symp(n: int, a: int, b: int) -> int:
    """Symplectic product of Pauli labels packed as x | (z << n)."""
    mask = (1 << n) - 1
    xa, za = a & mask, a >> n
    xb, zb = b & mask, b >> n
    return (bin(xa & zb).count("1") + bin(xb & za).count("1")) & 1


def _maximal_isotropic_subspaces(n: int) -> list[list[int]]:
    """All maximal isotropic subspaces of F_2^{2n}; each as a generator list."""
    frontier = {(0,): []}  # element-tuple -> generators
    for _level in range(n):
        nxt = {}
        for elements, gens in frontier.items():
            elem_set = set(elements)
            for v in range(1, 1 << (2 * n)):
                if v in elem_set:
                    continue
                if any(_symp(n, v, g) for g in gens):
                    continue
                new_elems = tuple(sorted(elem_set | {e ^ v for e in elements}))
                if new_elems not in nxt:
                    nxt[new_elems] = gens + [v]
        frontier = nxt
    return list(frontier.values())


def _pauli_from_packed(n: int, packed: int) -> qmeas.PauliLabel:
    mask = (1 << n) - 1
    return qmeas.PauliLabel(n, packed & mask, packed >> n)


class StabilizerStateDesc:
    """Stabilizer state given by n signed generators.

    ``generators`` is the n x (2n+1) binary matrix with rows
    (x bits | z bits | sign bit); the dense rendering is computed lazily and
    is the +1 eigenstate of every signed generator.
    """

    __slots__ = ("n", "generators", "_dense")

    def __init__(self, n: int, generators: np.ndarray, dense: np.ndarray | None = None):
        self.n = n
        self.generators = np.asarray(generators, dtype=np.int8)
        if self.generators.shape != (n, 2 * n + 1):
            raise ValueError(f"generators must be {n} x {2*n+1}")
        self._dense = dense

    def packed_rows(self) -> list[tuple[int, int]]:
        """(packed xz label, sign) per generator row."""
        out = []
        for row in self.generators:
            x = int(sum(int(row[i]) << i for i in range(self.n)))
            z = int(sum(int(row[self.n + i]) << i for i in range(self.n)))
            out.append((x | (z << self.n), int(row[2 * self.n])))
        return out

    def validate_group(self):
        rows = [p for p, _ in self.packed_rows()]
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                if _symp(self.n, rows[i], rows[j]):
                    raise ValueError("generators do not commute")
        # GF(2) independence via elimination
        basis = []
        for r in rows:
            cur = r
            for b in basis:
                cur = min(cur, cur ^ b)
            if cur == 0:
                raise ValueError("generators not independent")
            basis.append(cur)

    @property
    def dense(self) -> qcore.PureState:
        if self._dense is None:
            self._dense = _render_dense(self.n, self.packed_rows())
        return qcore.PureState(self._dense)

    def projector(self) -> np.ndarray:
        amps = self.dense.amplitudes
        return np.outer(amps, amps.conj())


def _render_dense(n: int, signed_rows: list[tuple[int, int]]) -> np.ndarray:
    d = 1 << n
    proj = np.eye(d, dtype=complex)
    for packed, sign in signed_rows:
        w = qmeas.dense_pauli(_pauli_from_packed(n, packed))
        proj = proj @ (np.eye(d) + (-1) ** sign * w) / 2
    norms = np.linalg.norm(proj, axis=0)
    col = int(np.argmax(norms))
    v = proj[:, col] / norms[col]
    # canonical global phase: first significant entry real positive
    k = int(np.argmax(np.abs(v) > 1e-8))
    v = v * (v[k].conj() / abs(v[k]))
    return v


def _desc_from_subspace(n: int, gens: list[int], signs: int) -> StabilizerStateDesc:
    rows = np.zeros((n, 2 * n + 1), dtype=np.int8)
    mask = (1 << n) - 1
    for i, g in enumerate(gens):
        x, z = g & mask, g >> n
        for b in range(n):
            rows[i, b] = (x >> b) & 1
            rows[i, n + b] = (z >> b) & 1
        rows[i, 2 * n] = (signs >> i) & 1
    return StabilizerStateDesc(n, rows)


@lru_cache(maxsize=4)
def enumerate_stabilizers(n: int) -> tuple[StabilizerStateDesc, ...]:
    """Every pure n-qubit stabilizer state exactly once (n <= 4)."""
    if n > 4:
        raise ValueError("enumeration capped at n = 4")
    subspaces = _maximal_isotropic_subspaces(n)
    out = []
    for gens in subspaces:
        for signs in range(1 << n):
            out.append(_desc_from_subspace(n, gens, signs))
    assert len(out) == STABILIZER_COUNTS[n]
    return tuple(out)


@lru_cache(maxsize=4)
def stabilizer_amplitude_table(n: int) -> np.ndarray:
    """(num_states, 2^n) stacked dense amplitudes for vectorized fidelities."""
    states = enumerate_stabilizers(n)
    return np.stack([s.dense.amplitudes for s in states])


def all_fidelities(psi: qcore.PureState) -> np.ndarray:
    n = qmeas.num_qubits(psi)
    table = stabilizer_amplitude_table(n)
    return np.abs(table.conj() @ psi.amplitudes) ** 2


def optimal_stab_loss(psi: qcore.PureState) -> tuple[float, int]:
    """Exhaustive-judge optimal loss and the argmax index."""
    fids = all_fidelities(psi)
    best = int(np.argmax(fids))
    return float(1.0 - fids[best]), best


# ---------------------------------------------------------------------------
# Protocol operations
# ---------------------------------------------------------------------------


def brute_force_best_stabilizer(
    oracle_p: CopyOracle, params: StabParams, rng: np.random.Generator
) -> StabilizerStateDesc:
    """1-agnostic optimum by enumeration; sampled mode estimates per-candidate
    fidelities with a union-bounded Hoeffding budget."""
    psi = oracle_p.ideal_peek()
    states = enumerate_stabilizers(params.n)
    fids = all_fidelities(psi)
    if params.mode == "ideal":
        oracle_p.charge_accounting(len(states), "brute-force-accounting")
        return states[int(np.argmax(fids))]
    num = len(states)
    shots = math.ceil(2 * math.log(2 * num / params.delta1) / params.eps1**2)
    oracle_p.charge_accounting(shots * num, "brute-force-sampled")
    estimates = rng.binomial(shots, np.clip(fids, 0, 1)) / shots
    return states[int(np.argmax(estimates))]


def validate_candidate(raw_generators, n: int) -> StabilizerStateDesc:
    try:
        desc = StabilizerStateDesc(n, np.asarray(raw_generators, dtype=np.int8))
        desc.validate_group()
        return desc
    except (ValueError, qcore.InvariantError) as err:
        raise ProtocolAbort(f"malformed stabilizer candidate: {err}") from None


def estimate_stab_loss(
    oracle_v: CopyOracle,
    candidate: StabilizerStateDesc,
    params: StabParams,
    rng: np.random.Generator,
) -> float:
    """l_hat = 1 - accept fraction of {|S><S|, 1-|S><S|} over Hoeffding shots."""
    shots = params.loss_shots()
    state = oracle_v.query(kind="loss-estimate").consume()
    oracle_v.charge_accounting(shots - 1, "loss-estimate")
    fid = float(np.real(np.vdot(candidate.projector(), state)))
    fid = min(max(fid, 0.0), 1.0)
    hits = int(rng.binomial(shots, fid))
    return 1.0 - hits / shots


def estimate_A3(
    oracle_v: CopyOracle,
    params: StabParams,
    rng: np.random.Generator,
    channel: Channel | None = None,
    tamper=None,
) -> float:
    """Sixth-moment estimate within eps3 with probability >= 1 - delta3.

    Sampled mode: S primitive samples, each one Bell-difference sample (4
    copies) plus one two-copy Pauli-moment sample routed through the
    delegation channel; the raw mean of the +-1 products is exactly unbiased
    for the moment (verified against the exact oracle in the calibration
    suite). Ideal mode: exact value + seeded noise, same 6S accounting.
    """
    samples = params.a3_samples()
    psi = oracle_v.judge_peek()
    if params.mode == "ideal":
        oracle_v.charge_accounting(6 * samples, "a3-accounting")
        value = exact_A3(psi) + params.eps3 * rng.uniform(-1.0, 1.0)
        if tamper is None:
            return value
        try:
            return delegated_measure(
                lambda states, r: value,
                [],
                mode="ideal-cheat",
                tamper=tamper,
                delta=2 * params.delta3,
                rng=rng,
            )
        except DelegationAbort:
            raise ProtocolAbort("delegation trap fired during moment estimation")

    def measurement(states, r):
        exps = qmeas.pauli_expectations(psi)
        p_char = exps**2 / (1 << params.n)
        p_char = np.clip(p_char, 0, None)
        p_char /= p_char.sum()
        idx = r.choice(p_char.size, size=(samples, 2), p=p_char)
        labels = idx[:, 0] ^ idx[:, 1]
        e_x = exps[labels]
        p_plus = (1.0 + e_x) / 2.0
        z1 = np.where(r.random(samples) < p_plus, 1.0, -1.0)
        z2 = np.where(r.random(samples) < p_plus, 1.0, -1.0)
        return float(np.mean(z1 * z2))

    try:
        return delegated_measure(
            measurement,
            oracle_v.stream(6 * samples, "a3-bell"),
            mode="ideal-honest" if tamper is None else "ideal-cheat",
            tamper=tamper,
            delta=2 * params.delta3,
            rng=rng,
        )
    except DelegationAbort:
        raise ProtocolAbort("delegation trap fired during moment estimation")


def stab_verdict(l_hat: float, a_hat: float, epsilon: float) -> bool:
    """Accept iff l_hat <= min(1, (4/3)(1 - a_hat)) + (3/5) epsilon."""
    u_hat = min(1.0, (4.0 / 3.0) * (1.0 - a_hat))
    return l_hat <= u_hat + 0.6 * epsilon


# ---------------------------------------------------------------------------
# Prover strategies
# ---------------------------------------------------------------------------


class HonestBruteForceProver(ProverStrategy):
    name = "honest-brute-force"
    honest = True
    tamper = None

    def produce_candidate(self, oracle_p, params, rng):
        return brute_force_best_stabilizer(oracle_p, params, rng).generators


class RandomStabilizerLiar(ProverStrategy):
    name = "random-stabilizer"
    honest = False
    tamper = None

    def produce_candidate(self, oracle_p, params, rng):
        states = enumerate_stabilizers(params.n)
        return states[int(rng.integers(0, len(states)))].generators


class WorstStabilizerLiar(ProverStrategy):
    name = "worst-stabilizer"
    honest = False
    tamper = None

    def produce_candidate(self, oracle_p, params, rng):
        fids = all_fidelities(oracle_p.ideal_peek())
        return enumerate_stabilizers(params.n)[int(np.argmin(fids))].generators


class ForeignBestLiar(ProverStrategy):
    """Best stabilizer state for an unrelated instance."""

    name = "foreign-best"
    honest = False
    tamper = None

    def produce_candidate(self, oracle_p, params, rng):
        other = qcore.sample_pure_state(1 << params.n, rng)
        _, best = optimal_stab_loss(other)
        return enumerate_stabilizers(params.n)[best].generators


ADVERSARIES = {
    cls.name: cls for cls in (RandomStabilizerLiar, WorstStabilizerLiar, ForeignBestLiar)
}


class StabVerifier:
    memory_limit = 1

    def __init__(self, params: StabParams):
        self.params = params
        self.extras = {
            "epsilon": params.epsilon,
            "delta": params.delta,
            "n": params.n,
            "mode": params.mode,
            "eps1": params.eps1,
            "eps2": params.eps2,
            "eps3": params.eps3,
            "loss_shots": params.loss_shots(),
            "a3_samples": params.a3_samples(),
        }

    def run(self, session, prover):
        p = self.params
        raw = prover.produce_candidate(session.oracle_p, p, session.rng("prover"))
        session.channel.send_structured("p->v", raw, session.next_round())
        candidate = validate_candidate(raw, p.n)
        l_hat = estimate_stab_loss(session.oracle_v, candidate, p, session.rng("loss"))
        a_hat = estimate_A3(
            session.oracle_v,
            p,
            session.rng("moment"),
            channel=session.channel if p.mode == "sampled" else None,
            tamper=getattr(prover, "tamper", None),
        )
        self.extras["estimates"] = {"l_hat": l_hat, "a_hat": a_hat}
        if not stab_verdict(l_hat, a_hat, p.epsilon):
            raise ProtocolAbort("loss exceeds the moment-derived upper bound")
        return candidate


@dataclass
class StabConfig:
    n: int = 3
    epsilon: float = 0.4
    delta: float = 1 / 3
    mode: str = "ideal"
    instance_mix: float = 0.12  # max squared overlap removed toward a Haar direction
    record_transcript: bool = False

    def params(self) -> StabParams:
        return StabParams(epsilon=self.epsilon, delta=self.delta, n=self.n, mode=self.mode)

    def sample_instance(self, which: str, rng: np.random.Generator) -> qcore.PureState:
        """Near-stabilizer pure state: random stabilizer state nudged toward
        a Haar direction so the optimal loss is small but nonzero."""
        states = enumerate_stabilizers(self.n)
        base = states[int(rng.integers(0, len(states)))].dense.amplitudes
        hair = qcore.sample_pure_state(1 << self.n, rng).amplitudes
        orth = hair - np.vdot(base, hair) * base
        norm = np.linalg.norm(orth)
        if norm < 1e-9:
            return qcore.PureState(base)
        orth /= norm
        t = self.instance_mix * rng.random()
        amps = math.sqrt(1 - t) * base + math.sqrt(t) * orth
        return qcore.PureState(amps / np.linalg.norm(amps))

    def run_one(self, hidden, prover, seed: int, prover_hidden=None) -> SessionResult:
        verifier = StabVerifier(self.params())
        oracle_v = CopyOracle(hidden)
        oracle_p = CopyOracle(
            prover_hidden if prover_hidden is not None else hidden, ideal_access=True
        )
        channel = Channel("quantum", record_transcript=self.record_transcript)
        return run_session(verifier, prover, (oracle_v, oracle_p), channel, seed)

    def judge(self, output: StabilizerStateDesc, hidden: qcore.PureState) -> bool:
        loss = 1.0 - qcore.fidelity_pure(hidden, output.projector())
        l_star, _ = optimal_stab_loss(hidden)
        return loss <= 8 * l_star + self.epsilon + 1e-9
