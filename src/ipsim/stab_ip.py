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
import weakref
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import ClassVar

import numpy as np

from . import qcore, qmeas
from .harness import (
    Channel,
    CopyOracle,
    Protocol,
    ProtocolAbort,
    ProverStrategy,
    TrivialValidationIP,
    Verifier,
    choose,
    delegated_measure,
)

STABILIZER_COUNTS = {1: 6, 2: 60, 3: 1080, 4: 36720}
INSTANCE_MIX = 0.12  # max squared overlap an instance moves toward a Haar direction
FIDELITY_TIE = 1e-12  # fidelities this close to the least one tie for farthest
_FRONTIER_BLOCK = 1024  # enumeration rows per pass: 256 KB of unpacked candidate bits at n = 4


def _check_qubits(n: int):
    if not 1 <= n <= 4:
        raise ValueError(f"n must be in 1..4 (the enumerated stabilizer states), got {n}")


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


@lru_cache(maxsize=4)
def _commute_masks(n: int) -> tuple[int, ...]:
    """Entry u has bit v set iff the Pauli labels u and v, packed as
    x | (z << n), commute."""
    mask = (1 << n) - 1
    labels = np.arange(1 << (2 * n))
    x, z = labels & mask, labels >> n
    anticommute = qmeas.popcount_table(n)[(x[:, None] & z[None, :]) ^ (z[:, None] & x[None, :])] & 1
    rows = np.packbits(anticommute == 0, axis=1, bitorder="little")
    return tuple(int.from_bytes(row.tobytes(), "little") for row in rows)


@lru_cache(maxsize=4)
def _maximal_isotropic_subspaces(n: int) -> np.ndarray:
    """All maximal isotropic subspaces of F_2^{2n}: a read-only (count, n)
    uint8 array of generator lists, in breadth-first order.

    Level 1 is <v> for each v > 0; level k + 1 grows each E of level k by
    each commuting v that is the least of its coset v + E. So each generator
    has no bit at an earlier one's top bit (pivot), and v is the least of
    v + E iff it has no bit at a pivot, iff v < v ^ g for every generator g.
    A level is one array pass, an AND of one packed row per generator, and
    ``np.nonzero`` lists the children row by row, v increasing. A child
    reached again (keyed by its sorted elements) keeps its first generators
    and place, as growing each E by every commuting v in turn would.
    """
    _check_qubits(n)
    labels = np.arange(1 << (2 * n), dtype=np.uint8)  # n <= 4: a label fits in a byte
    commute = b"".join(m.to_bytes(-(-len(labels) // 8), "little") for m in _commute_masks(n))
    least = np.packbits((0 < labels) & (labels < (labels[:, None] ^ labels)), axis=1, bitorder="little")
    grows = np.frombuffer(commute, np.uint8).reshape(len(labels), -1) & least  # row g: v commutes, v < v ^ g
    gens, elements = labels[1:, None], np.column_stack([0 * labels[1:], labels[1:]])
    for _level in range(1, n):
        found = []
        for start in range(0, len(gens), _FRONTIER_BLOCK):
            candidates = np.bitwise_and.reduce(grows[gens[start : start + _FRONTIER_BLOCK]], axis=1)
            rows, vs = np.nonzero(np.unpackbits(candidates, axis=1, bitorder="little"))
            found.append((rows + start, vs.astype(np.uint8)))
        rows, vs = (np.concatenate(parts) for parts in zip(*found))
        children = np.sort(np.concatenate([elements[rows], elements[rows] ^ vs[:, None]], axis=1), axis=1)
        first = np.sort(np.unique(children.view(np.dtype((np.void, children.shape[1]))).ravel(), return_index=True)[1])
        gens, elements = np.column_stack([gens[rows[first]], vs[first]]), children[first]
    gens.setflags(write=False)
    return gens


_BIT_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _packed_rows(n: int, generator_bytes: bytes) -> list[tuple[int, int]]:
    """(Pauli label x | (z << n), sign) per row of the n x (2n+1) int8 bit
    array with these bytes, on Python ints: a row's bits, read from bit
    2n - 1 down, are the binary digits of its label."""
    digits, w = generator_bytes.translate(_BIT_DIGITS), 2 * n + 1
    return [(int(digits[i : i + w - 1][::-1], 2), int(digits[i + w - 1 : i + w])) for i in range(0, len(digits), w)]


class StabilizerStateDesc:
    """Stabilizer state given by n signed generators, the n x (2n+1) binary
    matrix ``generators`` with rows (x bits | z bits | sign bit), rendered on
    use (``_rendered``) as the +1 eigenstate of every signed generator."""

    __slots__ = ("n", "generators", "__weakref__")

    def __init__(self, n: int, generators: np.ndarray):
        generators = np.asarray(generators, dtype=np.int8)
        if generators.shape != (n, 2 * n + 1):
            raise ValueError(f"generators must be {n} x {2*n+1}")
        self.n, self.generators = n, generators

    def packed_rows(self) -> list[tuple[int, int]]:
        """(packed xz label, sign) per generator row."""
        return _packed_rows(self.n, self.generators.tobytes())

    def validate_group(self):
        if self.generators.tobytes().translate(None, b"\x00\x01"):
            raise ValueError("generator entries must be bits")
        rows = [p for p, _ in self.packed_rows()]
        commute, span = _commute_masks(self.n), sum(1 << b for b in set(rows))
        if any(commute[a] & span != span for a in rows):
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
        return _rendered(self.n, self.generators.tobytes())

    def projector(self) -> np.ndarray:
        amps = self.dense.amplitudes
        return np.outer(amps, amps.conj())


@lru_cache(maxsize=4)
def _projector_factors(n: int) -> np.ndarray:
    """(2, 4^n, 2^n, 2^n): (I + (-1)^s W) / 2 for sign bit s and every Pauli W, as in ``qmeas.dense_pauli``."""
    d, popcount = 1 << n, qmeas.popcount_table(n)
    labels, j = np.arange(d * d)[:, None], np.arange(d)
    x, z = labels & (d - 1), labels >> n
    w = np.zeros((d * d, d, d), dtype=complex)
    w[labels, j ^ x, j] = np.array([1j**k for k in range(4)])[popcount[x & z] % 4] * (1 - 2 * (popcount[j & z] & 1))
    out = (np.eye(d) + np.array([1, -1])[:, None, None, None] * w) / 2
    out.setflags(write=False)
    return out


@lru_cache(maxsize=64)
def _rendered(n: int, generator_bytes: bytes) -> qcore.PureState:
    """The stabilizer state of the n x (2n+1) int8 generator array with these
    bytes. A trial renders its instance's base state and, from the honest
    prover, the same generators again; this renders them once.

    The state is the largest column of the product of its projectors
    (I + (-1)^s W) / 2, normalized, with the first significant entry made
    real positive. Every projector entry is a dyadic rational, so the
    product is exact.
    """
    labels, signs = zip(*_packed_rows(n, generator_bytes))
    proj = reduce(np.matmul, _projector_factors(n)[list(signs), list(labels)])
    norms = np.linalg.norm(proj, axis=0)
    col = norms.argmax()
    v = proj[:, col] / norms[col]
    # canonical global phase: first significant entry real positive
    first = v[(np.abs(v) > 1e-8).argmax()]
    return qcore.PureState(v * (first.conj() / np.abs(first)))


def _group_index(n: int, subspaces: np.ndarray) -> np.ndarray:
    """(len(subspaces), 2^n) index of c_k <W_(l_k)> in [exps, -exps].

    Element k of a subspace's group is the product of the generators in the
    bit set k, c_k W_(l_k) with c_k = +-1. The table is built by doubling:
    for k < 2^i, element k + 2^i is element k times generator i, and
    W_a W_b = i^e W_(a^b) with e = a_x.a_z + b_x.b_z + 2 a_z.b_x - c_x.c_z
    (dots are popcounts, c = a ^ b), so the phase exponents add mod 4.
    """
    mask = (1 << n) - 1
    popcount = qmeas.popcount_table(n)

    def xz(a):
        return popcount[(a & mask) & (a >> n)]

    gens = np.array(subspaces, dtype=np.int64)
    labels = np.zeros((len(subspaces), 1 << n), dtype=np.int64)
    expo = np.zeros_like(labels)
    for i in range(n):
        half = 1 << i
        a, b = labels[:, :half], gens[:, i : i + 1]
        c = a ^ b
        labels[:, half : 2 * half] = c
        e = xz(a) + xz(b) + 2 * popcount[(a >> n) & (b & mask)] - xz(c)
        expo[:, half : 2 * half] = expo[:, :half] + e
    if np.any(expo & 1):
        raise qcore.InvariantError("group element with an imaginary phase: generators do not commute")
    index = labels + ((expo & 2) == 2) * (1 << (2 * n))
    index.setflags(write=False)
    return index


class _StateTable(Sequence):
    """The states of a read-only (states, n, 2n+1) generator table, each described
    when read; as in a tuple, a state read again while its description lives gets it."""

    def __init__(self, table: np.ndarray):
        self.table, self.alive = table, weakref.WeakValueDictionary()

    def __len__(self) -> int:
        return len(self.table)

    def __getitem__(self, i):
        rows = self.table[i]
        if rows.ndim == 3:
            return _StateTable(rows)
        return self.alive.setdefault(i % len(self.table), StabilizerStateDesc(len(rows), rows))


@lru_cache(maxsize=4)
def enumerate_stabilizers(n: int) -> Sequence[StabilizerStateDesc]:
    """Every pure n-qubit stabilizer state exactly once (n <= 4): state
    S * 2^n + s is isotropic subspace S with sign bit (s >> i) & 1 on row i."""
    subspaces = _maximal_isotropic_subspaces(n)
    if len(subspaces) << n != STABILIZER_COUNTS[n]:
        raise qcore.InvariantError(f"{len(subspaces) << n} stabilizer states at n = {n}, not {STABILIZER_COUNTS[n]}")
    generators = np.empty((len(subspaces), 1 << n, n, 2 * n + 1), dtype=np.int8)
    generators[..., : 2 * n] = np.unpackbits(subspaces[:, None, :, None], axis=-1, count=2 * n, bitorder="little")
    generators[..., 2 * n] = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    generators.setflags(write=False)
    return _StateTable(generators.reshape(-1, n, 2 * n + 1))


@lru_cache(maxsize=4)
def stabilizer_group_index(n: int) -> np.ndarray:
    """(num_states / 2^n, 2^n) read-only table, one row per isotropic subspace
    in enumeration order: entry k is l_k + 4^n [c_k = -1], so that
    ``concatenate([exps, -exps])[entry]`` is c_k <W_(l_k)>, where c_k W_(l_k)
    is the product of the subspace's generators in the bit set k."""
    return _group_index(n, _maximal_isotropic_subspaces(n))


@qcore.last_state_cache
def all_fidelities(psi: qcore.PureState) -> np.ndarray:
    """<psi|S|psi> for every enumerated stabilizer state S, in enumeration
    order, from the Pauli expectations of psi.

    State S * 2^n + s stabilizes generator i with sign (-1)^((s >> i) & 1),
    so its projector is 2^-n sum_k (-1)^popcount(s & k) c_k W_(l_k), and
    F[S, s] = 2^-n sum_k (-1)^popcount(s & k) c_k <W_(l_k)>: one Walsh-Hadamard
    transform per subspace. Entries may come out a few ulps below 0. The
    vector is computed once while psi is the last state asked for
    (``qcore.last_state_cache``) and is read-only, so the honest prover and
    the judge of a trial read one pass.
    """
    n = qmeas.num_qubits(psi)
    exps = qmeas.pauli_expectations(psi)
    signed = np.concatenate([exps, -exps])[stabilizer_group_index(n)]
    return (signed @ (qmeas.hadamard_sign_matrix(n) / (1 << n))).ravel()


def farthest_index(fids: np.ndarray) -> int:
    """First index within FIDELITY_TIE of the least fidelity. An exact
    stabilizer instance is orthogonal to about a quarter of the states, and
    a plain argmin would pick among those ties by float noise."""
    return int(np.flatnonzero(fids <= fids.min() + FIDELITY_TIE)[0])


def optimal_stab_loss(psi: qcore.PureState) -> tuple[float, int]:
    """Exhaustive-judge optimal loss and the argmax index."""
    fids = all_fidelities(psi)
    best = int(np.argmax(fids))
    return float(1.0 - fids[best]), best


# ---------------------------------------------------------------------------
# Protocol operations
# ---------------------------------------------------------------------------


def brute_force_best_stabilizer(
    oracle_p: CopyOracle, cfg: StabConfig, rng: np.random.Generator
) -> StabilizerStateDesc:
    """1-agnostic optimum by enumeration; sampled mode estimates per-candidate
    fidelities with a union-bounded Hoeffding budget."""
    psi = oracle_p.ideal_peek()
    states = enumerate_stabilizers(cfg.n)
    fids = all_fidelities(psi)
    if cfg.mode == "ideal":
        oracle_p.meter.charge(len(states), "brute-force-accounting")
        return states[int(np.argmax(fids))]
    num = len(states)
    shots = math.ceil(2 * math.log(2 * num / cfg.delta1) / cfg.eps1**2)
    oracle_p.meter.charge(shots * num, "brute-force-sampled")
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
    shots: int,
    rng: np.random.Generator,
    kind: str = "loss-estimate",
) -> float:
    """l_hat = 1 - accept fraction of {|S><S|, 1-|S><S|} over ``shots`` copies."""
    state = oracle_v.stream(shots, kind)[0]
    fid = float(np.real(np.vdot(candidate.projector(), state)))
    fid = min(max(fid, 0.0), 1.0)
    hits = int(rng.binomial(shots, fid))
    return 1.0 - hits / shots


def estimate_A3(
    oracle_v: CopyOracle,
    cfg: StabConfig,
    rng: np.random.Generator,
    channel: Channel | None = None,
    tamper=None,
) -> float:
    """Sixth-moment estimate within eps3 with probability >= 1 - delta3.

    Sampled mode: S primitive samples, each one Bell-difference sample (4
    copies) plus one two-copy Pauli-moment sample routed through the
    delegation channel, drawn by ``qmeas.bell_difference_labels`` and
    ``qmeas.pauli_moment_bits``, the laws the calibration suite checks
    against exact oracles; the raw mean of the +-1 products is exactly
    unbiased for the moment. Ideal mode: exact value + seeded noise, same 6S
    accounting.
    """
    samples = cfg.a3_samples()
    if cfg.mode == "ideal":
        oracle_v.meter.charge(6 * samples, "a3-accounting")
        value = exact_A3(oracle_v.judge_peek()) + cfg.eps3 * rng.uniform(-1.0, 1.0)
        return delegated_measure(
            lambda states, r: value, [], tamper=tamper, delta=2 * cfg.delta3, rng=rng
        )

    def measurement(states, r):
        exps = qmeas.pauli_expectations(states[0])  # the copies share one density matrix
        p_char = qmeas.characteristic_distribution(states[0], exps)
        labels = qmeas.bell_difference_labels(p_char, samples, r)
        bits = qmeas.pauli_moment_bits(exps[labels], r)
        return float(np.mean(2 * bits - 1))

    return delegated_measure(
        measurement,
        oracle_v.stream(6 * samples, "a3-bell", channel=channel),
        tamper=tamper,
        delta=2 * cfg.delta3,
        rng=rng,
    )


def stab_verdict(l_hat: float, a_hat: float, epsilon: float) -> bool:
    """Accept iff l_hat <= min(1, (4/3)(1 - a_hat)) + (3/5) epsilon."""
    u_hat = min(1.0, (4.0 / 3.0) * (1.0 - a_hat))
    return l_hat <= u_hat + 0.6 * epsilon


# ---------------------------------------------------------------------------
# Prover strategies
# ---------------------------------------------------------------------------


class HonestBruteForceProver(ProverStrategy):
    name = "honest-brute-force"

    def produce_candidate(self, oracle_p, cfg, rng):
        return brute_force_best_stabilizer(oracle_p, cfg, rng).generators


class RandomStabilizerLiar(ProverStrategy):
    name = "random-stabilizer"

    def produce_candidate(self, oracle_p, cfg, rng):
        states = enumerate_stabilizers(cfg.n)
        return states[int(rng.integers(0, len(states)))].generators


class WorstStabilizerLiar(ProverStrategy):
    name = "worst-stabilizer"

    def produce_candidate(self, oracle_p, cfg, rng):
        fids = all_fidelities(oracle_p.ideal_peek())
        return enumerate_stabilizers(cfg.n)[farthest_index(fids)].generators


class ForeignBestLiar(ProverStrategy):
    """Best stabilizer state for an unrelated instance."""

    name = "foreign-best"

    def produce_candidate(self, oracle_p, cfg, rng):
        other = qcore.sample_pure_state(1 << cfg.n, rng)
        _, best = optimal_stab_loss(other)
        return enumerate_stabilizers(cfg.n)[best].generators


ADVERSARIES = {
    cls.name: cls for cls in (RandomStabilizerLiar, WorstStabilizerLiar, ForeignBestLiar)
}


class StabVerifier(Verifier):
    def run(self, session, prover):
        p = self.cfg
        raw = prover.produce_candidate(session.oracle_p, p, session.rng("prover"))
        session.channel.send_structured("p->v", raw, session.next_round())
        candidate = validate_candidate(raw, p.n)
        l_hat = estimate_stab_loss(session.oracle_v, candidate, p.loss_shots(), session.rng("loss"))
        a_hat = estimate_A3(
            session.oracle_v,
            p,
            session.rng("moment"),
            channel=session.channel,
            tamper=prover.tamper,
        )
        self.extras["estimates"] = {"l_hat": l_hat, "a_hat": a_hat}
        if not stab_verdict(l_hat, a_hat, p.epsilon):
            raise ProtocolAbort("loss exceeds the moment-derived upper bound")
        return candidate


@dataclass(frozen=True)
class StabConfig(Protocol):
    """The stabilizer-learning IP's validated parameter set, which its
    verifier reads, with the experiment settings."""

    n: int = 3
    epsilon: float = 0.4
    delta: float = 1 / 3
    mode: str = "ideal"
    verifier: ClassVar[type] = StabVerifier
    provers: ClassVar[dict] = {"honest": HonestBruteForceProver, **ADVERSARIES}

    def __post_init__(self):
        _check_qubits(self.n)  # before sample_instance enumerates states
        self.require("epsilon", "delta", "mode")

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

    def formula(self) -> dict:
        return {
            "eps1": self.eps1,
            "eps2": self.eps2,
            "eps3": self.eps3,
            "loss_shots": self.loss_shots(),
            "a3_samples": self.a3_samples(),
        }

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
        t = INSTANCE_MIX * rng.random()
        amps = math.sqrt(1 - t) * base + math.sqrt(t) * orth
        return qcore.PureState(amps / np.linalg.norm(amps))

    def judge(self, output: StabilizerStateDesc, hidden: qcore.PureState) -> bool:
        loss = 1.0 - qcore.fidelity_pure(hidden, output.projector())
        l_star, _ = optimal_stab_loss(hidden)
        return loss <= 8 * l_star + self.epsilon + 1e-9


# ---------------------------------------------------------------------------
# Trivial validation IP on realizable stabilizer learning
# ---------------------------------------------------------------------------


class TrivialSolver(ProverStrategy):
    """Sends the stabilizer state closest to the instance."""

    name = "brute-force-solver"

    def solve(self, oracle_p, rng):
        psi = oracle_p.ideal_peek()
        _, best = optimal_stab_loss(psi)
        return enumerate_stabilizers(qmeas.num_qubits(psi))[best]


class TrivialGarbage(TrivialSolver):
    """Sends the stabilizer state farthest from the instance."""

    name = "garbage"

    def solve(self, oracle_p, rng):
        psi = oracle_p.ideal_peek()
        return enumerate_stabilizers(qmeas.num_qubits(psi))[farthest_index(all_fidelities(psi))]


@dataclass(frozen=True)
class TrivialConfig(Protocol):
    """Obs-2.5-style IP on realizable stabilizer learning: the prover solves,
    the verifier runs a stabilizer-fidelity decide-valid check (``checker``:
    "sampled" measures copies, "ideal" charges the shot budget and errs with
    probability delta/2, "exact-test" reads the instance for free)."""

    n: int = 2
    epsilon: float = 0.3
    delta: float = 1 / 3
    checker: str = "sampled"
    verifier: ClassVar[type] = TrivialValidationIP
    provers: ClassVar[dict] = {"honest": TrivialSolver, "garbage": TrivialGarbage}

    def __post_init__(self):
        _check_qubits(self.n)  # before sample_instance enumerates states
        self.require("epsilon", "delta")
        choose("checker", self.checker, self._checks())

    def shots(self) -> int:
        return math.ceil(math.log(2 / self.delta) / (2 * (self.epsilon / 2) ** 2))

    def formula(self) -> dict:
        return {}

    def _checks(self) -> dict:
        return {"sampled": self._check_sampled, "ideal": self._check_ideal, "exact-test": self._check_exact}

    def check(self, oracle_v, hyp: StabilizerStateDesc, rng) -> bool:
        """The decide-valid subroutine of ``checker``."""
        return self._checks()[self.checker](oracle_v, hyp, rng)

    def _check_sampled(self, oracle_v, hyp: StabilizerStateDesc, rng) -> bool:
        return estimate_stab_loss(oracle_v, hyp, self.shots(), rng, "decide-valid") <= self.epsilon / 2

    def _check_ideal(self, oracle_v, hyp: StabilizerStateDesc, rng) -> bool:
        oracle_v.meter.charge(self.shots(), "decide-valid-accounting")
        ok = self._check_exact(oracle_v, hyp, rng)
        return ok if rng.random() >= self.delta / 2 else not ok

    def _check_exact(self, oracle_v, hyp: StabilizerStateDesc, rng) -> bool:
        amps = oracle_v.judge_peek().amplitudes
        fid = float(np.real(np.vdot(hyp.projector(), np.outer(amps, amps.conj()))))
        return (1 - fid) <= self.epsilon / 2

    def sample_instance(self, which: str, rng: np.random.Generator) -> qcore.PureState:
        states = enumerate_stabilizers(self.n)
        return states[int(rng.integers(0, len(states)))].dense

    def judge(self, output: StabilizerStateDesc, hidden: qcore.PureState) -> bool:
        loss = 1.0 - float(np.abs(np.vdot(output.dense.amplitudes, hidden.amplitudes)) ** 2)
        return loss <= self.epsilon + 1e-9

