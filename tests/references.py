"""References the tests compare the program against: the per-sample
verifier update, the engine's closing value, the eq table built by
doubling, Lagrange evaluation at a point, the stabilizer render from a
product of projectors and the purity verdict over per-round records, each
the body it had in the program."""

from dataclasses import dataclass
from functools import cache, reduce

import numpy as np

from ipsim import qmeas
from ipsim.harness import ProtocolAbort
from ipsim.m61 import StreamedNodeEval, fadd, lagrange_weights, vmul, vsub
from ipsim.purity_ip import MIXED, OUTPUT_MIXED, OUTPUT_PURE, PURE
from ipsim.stream_ip import StreamVerifierState, _SumcheckEngine


def lagrange_eval(values, t: int, weights: list[int] | None = None) -> int:
    """Unique degree <= L-1 interpolant through (j, values[j]) at t, O(L)."""
    values = list(values)
    ev = StreamedNodeEval(t, len(values), lagrange_weights(len(values)) if weights is None else weights)
    for v in values:
        ev.feed(v)
    return ev.result()


def doubling_chi_table(k: int, point: list[int]) -> np.ndarray:
    """chi_x(point) for every cube index x, little-endian bit order, by
    doubling: each step prepends the least-significant position, so the
    coordinates are taken from the highest down, writing t * p_j at odd and
    t - t * p_j = t * (1 - p_j) at even positions of a new array."""
    table = np.ones(1, dtype=np.uint64)
    for j in reversed(range(k.bit_length() - 1)):
        doubled = np.empty(2 * table.size, dtype=np.uint64)
        one = vmul(table, point[j], out=doubled[1::2])
        vsub(table, one, out=doubled[0::2])
        table = doubled
    return table


class SequentialState(StreamVerifierState):
    """Verifier registers that also take one sample at a time, the reference
    ``update_batch`` is checked against."""

    def update(self, index: int):
        """One stream sample: a(r) += chi_index(r) = chi(r, bits of index)."""
        if not 0 <= index < self.k:
            raise ValueError("sample index out of range")
        bits = [(index >> j) & 1 for j in range(self.b)]
        self.a_at_r = fadd(self.a_at_r, self.chi_pair(self.r, bits))
        self.sample_count += 1


class ClosingEngine(_SumcheckEngine):
    """An honest engine that also gives g at its one bound point, which the
    pinned engine transcripts close on."""

    def final_value(self) -> int:
        assert self.ids.size == 1
        return self.polynomial.value(int(self.values[self.ids[0]]), self.prefix)


@cache
def projector_factors(n: int) -> np.ndarray:
    """(2, 4^n, 2^n, 2^n): (I + (-1)^s W) / 2 for sign bit s and every Pauli
    label, one ``qmeas.dense_pauli`` matrix per label (cached, read-only)."""
    d = 1 << n
    out = np.empty((2, 1 << (2 * n), d, d), dtype=complex)
    for label in range(1 << (2 * n)):
        w = qmeas.dense_pauli(qmeas.PauliLabel.from_index(n, label))
        for sign in (0, 1):
            out[sign, label] = (np.eye(d) + (-1) ** sign * w) / 2
    out.setflags(write=False)
    return out


def projector_product_render(n: int, generators: np.ndarray) -> np.ndarray:
    """The amplitudes of the stabilizer state of an n x (2n+1) generator
    array: the largest column of the product of its projectors
    (I + (-1)^s W) / 2, normalized, with the first significant entry made
    real positive."""
    labels = [int(sum(int(bit) << j for j, bit in enumerate(row[: 2 * n]))) for row in generators]
    signs = [int(row[2 * n]) for row in generators]
    proj = reduce(np.matmul, projector_factors(n)[signs, labels])
    norms = np.linalg.norm(proj, axis=0)
    col = norms.argmax()
    v = proj[:, col] / norms[col]
    first = v[(np.abs(v) > 1e-8).argmax()]
    return v * (first.conj() / np.abs(first))


@dataclass
class RoundRecord:
    kind: str  # "m" | "p" | "c"
    prover_answer: int


def purity_verdict(records: list[RoundRecord]) -> str:
    """Abort on any failed test or inconsistent/missing compute answers. A
    mixed-test round passes on a MIXED answer, a pure-test round on PURE."""
    passing = {"m": MIXED, "p": PURE}
    for rec in records:
        if rec.kind in passing and rec.prover_answer != passing[rec.kind]:
            raise ProtocolAbort(f"failed {rec.kind}-test round")
    compute_answers = [rec.prover_answer for rec in records if rec.kind == "c"]
    if not compute_answers:
        raise ProtocolAbort("no compute round occurred")
    if len(set(compute_answers)) != 1:
        raise ProtocolAbort("inconsistent compute-round answers")
    return OUTPUT_PURE if compute_answers[0] == PURE else OUTPUT_MIXED
