"""Streaming interactive proof for memory-constrained uniformity testing.

The verifier streams n samples with O(polylog k) persistent state, keeping
the multilinear extension of the frequency vector at pre-drawn random points,
then delegates the unique-elements count Z to the prover through a sum-check
over the Boolean cube (with the unique-indicator interpolant capped at
degree D) plus a vanishing-product range certificate that catches
frequencies above the cap. Decision: "not uniform" iff the verified Z is at
most n * tau.

Outside the appendix's regime n can exceed k by so much that tau <= 0, and
then the rule above answers "uniform" for every stream (Z >= 0 > n * tau).
For those configs only, the verifier also maintains the extension at one
more random point r3 (b + 1 registers; 4b + 13 in all) and verifies the
collision count C = sum_x f(x)(f(x)-1)/2 with one more sum-check
(h(y) = y(y-1)/2 is an exact degree-2 polynomial, so it needs no cap and no
range certificate); it then decides "not uniform" iff
C > C(n,2)(1+2 eps^2)/k, halfway between the uniform mean C(n,2)/k and the
floor C(n,2)(1+4 eps^2)/k that every eps-far source (total variation) meets.
This collision rule (Goldreich-Ron collision tester, with the F_2 sum-check
of annotated data streams) goes beyond the paper's appendix. Configs with
tau > 0 draw, stream, send and decide exactly as the appendix describes.
At k=256, eps=0.9 the default far instance (support fraction 1/8, total
variation 0.875) lies outside the eps-far promise; its expected collision
count 8 C(n,2)/k still clears the threshold by a factor of three.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar

import numpy as np

from . import m61
from .harness import (
    Channel,
    CopyOracle,
    ProtocolAbort,
    ProverStrategy,
    SessionResult,
    choose,
    run_session,
)
from .m61 import Q, fadd, fmul, fsub, vadd, vmul, vsub, vsum

FIELD_BITS = 61


@dataclass(frozen=True)
class SumcheckRoundMsg:
    """One round polynomial given by its values on the integer nodes
    0..degree_bound+1; length is pinned to degree_bound + 2."""

    evaluations: tuple
    degree_bound: int

    def __post_init__(self):
        if len(self.evaluations) != self.degree_bound + 2:
            raise ValueError(
                f"round message needs {self.degree_bound + 2} evaluations, got {len(self.evaluations)}"
            )

    def __len__(self):
        return len(self.evaluations)

    def __iter__(self):
        return iter(self.evaluations)


@dataclass(frozen=True)
class UniformityParams:
    k: int
    epsilon: float
    degree_cap: int = 32
    # waives epsilon >= 12/k^(1/4); such configs carry in_regime = False and,
    # where tau <= 0 makes the unique-count rule constant, decide on the
    # verified collision count instead (see decision_statistic)
    allow_small_epsilon: bool = False

    def __post_init__(self):
        if self.k & (self.k - 1) or self.k < 2:
            raise ValueError("k must be a power of two >= 2")
        if not self.allow_small_epsilon and not self.in_regime:
            raise ValueError(f"epsilon must be >= 12/k^(1/4) = {12 / self.k**0.25}")
        if not 0 < self.epsilon <= 1:
            raise ValueError("epsilon in (0, 1]")

    @property
    def in_regime(self) -> bool:
        return self.epsilon >= 12 / self.k**0.25 - 1e-12

    @property
    def b(self) -> int:
        return self.k.bit_length() - 1

    @property
    def n(self) -> int:
        return math.ceil(140 * math.sqrt(self.k) / self.epsilon**2)

    @property
    def tau(self) -> float:
        n = self.n
        return (1 - 1 / self.k) ** (n - 1) - n * self.epsilon**2 / (8 * self.k)

    @property
    def threshold_count(self) -> float:
        # the appendix compares a count with the per-sample rate tau; the
        # count is checked against n * tau for dimensional consistency
        return self.n * self.tau

    @property
    def decision_statistic(self) -> str:
        """"unique" (the appendix's rule) unless tau <= 0 makes it constant."""
        return "unique" if self.tau > 0 else "collisions"

    @property
    def collision_threshold(self) -> float:
        # halfway between C(n,2)/k (uniform) and C(n,2)(1+4 eps^2)/k (eps-far)
        return self.n * (self.n - 1) / 2 * (1 + 2 * self.epsilon**2) / self.k


def uniformity_params(k: int, epsilon: float, degree_cap: int = 32, **kw) -> UniformityParams:
    return UniformityParams(k=k, epsilon=epsilon, degree_cap=degree_cap, **kw)


# ---------------------------------------------------------------------------
# Hidden instances: classical distributions over [0, k)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UniformDistribution:
    k: int
    name: str = "uniform"

    def draw(self, rng: np.random.Generator) -> int:
        return int(rng.integers(0, self.k))

    def draw_batch(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.integers(0, self.k, size=size)


@dataclass(frozen=True)
class SupportFractionDistribution:
    """Uniform over the first k*fraction values; TV distance 1 - fraction."""

    k: int
    fraction: float
    name: str = "support-fraction"

    @property
    def support(self) -> int:
        return max(1, int(self.k * self.fraction))

    def draw(self, rng: np.random.Generator) -> int:
        return int(rng.integers(0, self.support))

    def draw_batch(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.integers(0, self.support, size=size)


@dataclass(frozen=True)
class PointMassDistribution:
    k: int
    value: int = 0
    name: str = "point-mass"

    def draw(self, rng: np.random.Generator) -> int:
        return self.value

    def draw_batch(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.full(size, self.value, dtype=np.int64)


# ---------------------------------------------------------------------------
# Streaming verifier state
# ---------------------------------------------------------------------------


class StreamVerifierState:
    """Persistent verifier registers: three b-element random points, two
    maintained extension values, claims and counters. Everything else used
    during updates or round streaming is O(1) transient scratch.

    Given ``collision_rng``, a fourth point r3 is drawn from it and the
    extension value at r3 is maintained too (b + 1 more registers), for the
    collision-count sum-check."""

    def __init__(self, k: int, rng: np.random.Generator, collision_rng: np.random.Generator | None = None):
        self.k = k
        self.b = k.bit_length() - 1
        self.r = [m61.rand_fe(rng) for _ in range(self.b)]
        self.r2 = [m61.rand_fe(rng) for _ in range(self.b)]
        self.zeta = [m61.rand_fe(rng) for _ in range(self.b)]
        self.a_at_r = 0
        self.a_at_r2 = 0
        self.sample_count = 0
        # fixed register accounting: 3b point coordinates, 2 maintained
        # extension values, 2 live claims, 4 streaming-eval scratch slots and
        # 4 parameter/counter slots
        self.register_count = 3 * self.b + 12
        # (point attribute, extension-value attribute) pairs kept up to date
        self.maintained = [("r", "a_at_r"), ("r2", "a_at_r2")]
        self.r3 = None
        if collision_rng is not None:
            self.r3 = [m61.rand_fe(collision_rng) for _ in range(self.b)]
            self.a_at_r3 = 0
            self.register_count += self.b + 1
            self.maintained.append(("r3", "a_at_r3"))
        self.peak_field_elements = self.register_count

    def _chi_factors(self, point: list[int], index: int) -> int:
        acc = 1
        for j in range(self.b):
            rj = point[j]
            acc = fmul(acc, rj if (index >> j) & 1 else fsub(1, rj))
        return acc

    def update(self, index: int):
        """One stream sample: a(r) += chi_index(r) at every maintained point."""
        if not 0 <= index < self.k:
            raise ValueError("sample index out of range")
        for point, value in self.maintained:
            setattr(self, value, fadd(getattr(self, value), self._chi_factors(getattr(self, point), index)))
        self.sample_count += 1

    def update_batch(self, samples: np.ndarray):
        """Vectorized transcript of per-sample updates (same arithmetic,
        same persistent registers; asserted equal to sequential updates)."""
        samples = np.asarray(samples, dtype=np.uint64)
        if samples.size == 0:
            return
        if int(samples.max()) >= self.k:
            raise ValueError("sample index out of range")
        bits = [((samples >> np.uint64(j)) & np.uint64(1)).astype(np.intp) for j in range(self.b)]
        factor = np.empty(samples.size, dtype=np.uint64)
        for point, value in self.maintained:
            point = getattr(self, point)
            chi = np.ones(samples.size, dtype=np.uint64)
            for j in range(self.b):
                pair = np.array([fsub(1, point[j]), point[j]], dtype=np.uint64)
                vmul(chi, np.take(pair, bits[j], out=factor), out=chi)
            setattr(self, value, fadd(getattr(self, value), vsum(chi)))
        self.sample_count += samples.size

    def chi_pair(self, point: list[int], other: list[int]) -> int:
        """chi(point, other) = prod_j ((1-p_j)(1-o_j) + p_j o_j)."""
        acc = 1
        for pj, oj in zip(point, other):
            term = fadd(fmul(pj, oj), fmul(fsub(1, pj), fsub(1, oj)))
            acc = fmul(acc, term)
        return acc


def multilinear_point_update(state: StreamVerifierState, index: int) -> StreamVerifierState:
    state.update(index)
    return state


def lagrange_h_eval(h_values, t: int, weights=None) -> int:
    """Degree <= D interpolant of values on nodes 0..D evaluated at t."""
    return m61.lagrange_eval(h_values, t, weights)


@lru_cache(maxsize=64)
def _weights_cached(num_nodes: int) -> tuple[int, ...]:
    return tuple(m61.lagrange_weights(num_nodes))


@lru_cache(maxsize=64)
def _unique_h_constant(degree_cap: int) -> int:
    """c with h_hat(y) = c * prod_{i in 0..D, i != 1} (y - i)."""
    denom = 1
    for i in range(degree_cap + 1):
        if i != 1:
            denom = fmul(denom, fsub(1, i % Q))
    return m61.finv(denom)


_INV2 = m61.finv(2)


def collision_h(y: int) -> int:
    """h(y) = y(y-1)/2: the number of colliding pairs among y equal samples."""
    return fmul(_INV2, fmul(y, fsub(y, 1)))


# ---------------------------------------------------------------------------
# Honest prover sum-check engines
# ---------------------------------------------------------------------------


def _segment_sums_mod(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Per-segment sums mod Q of a sorted-by-segment uint64 array."""
    hi = (values >> np.uint64(32)).astype(np.int64)
    lo = (values & np.uint64(0xFFFFFFFF)).astype(np.int64)
    seg_hi = np.add.reduceat(hi, starts).astype(np.uint64) % np.uint64(Q)
    seg_lo = np.add.reduceat(lo, starts).astype(np.uint64) % np.uint64(Q)
    return vadd(vmul(seg_hi, np.uint64((1 << 32) % Q)), seg_lo)


def _factor_runs(factors: list[int]) -> list[tuple[int, list[int], int | None]]:
    """Split sorted factors into runs lo..hi of consecutive integers, each as
    (S, pair constants, middle): with S = lo + hi and w = y(y - S),
    (y - i)(y - (S - i)) = w + i(S - i) for i = lo, lo + 1, ... below S/2,
    and an odd-length run leaves the single factor (y - S/2)."""
    runs = []
    for _, group in itertools.groupby(enumerate(factors), lambda pair: pair[1] - pair[0]):
        run = [f for _, f in group]
        total = run[0] + run[-1]
        consts = [i * (total - i) % Q for i in run[: len(run) // 2]]
        runs.append((total, consts, run[len(run) // 2] if len(run) % 2 else None))
    return runs


def _blend(u: np.ndarray, d: np.ndarray, rows: int) -> np.ndarray:
    """rows x m array with row t = u + t*d, built by doubling."""
    out = np.empty((rows, u.size), dtype=np.uint64)
    out[0] = u
    step = d
    filled = 1
    while filled < rows:
        take = min(filled, rows - filled)
        vadd(out[:take], step, out=out[filled : filled + take])
        filled += take
        if filled < rows:
            step = vadd(step, step)
    return out


class _SumcheckEngine:
    """Honest table-folding prover for one b-variate sum-check.

    ``kind`` selects the composed polynomial: "unique" evaluates the capped
    unique-indicator interpolant of the frequency extension; "range"
    evaluates chi(x, zeta) * prod_{i=0..D} (a(x) - i); "collisions" evaluates
    the exact a(x)(a(x)-1)/2 and ignores the cap. Messages are the round
    polynomial on integer nodes 0..L-1.

    Early rounds bucket identical (value, difference) pairs, which collapses
    the work by orders of magnitude while the folded tables still carry few
    distinct values; the buckets come from a 1-D ``np.unique`` of each column
    and of the combined int64 key, in (value, difference) order. A round
    evaluates each pair's blend y = u + t*d at the L nodes in blocks of
    m61.CHUNK // L columns, so every L x block buffer stays in cache, and
    adds up each node's partial sums mod Q. Within a run lo..hi of consecutive
    factors, S = lo + hi pairs them as (y - i)(y - (S - i)) = w + i(S - i)
    with w = y(y - S) computed once, so the product costs about D/2 + 2
    field multiplies instead of D + 1. Every step is exact arithmetic in
    GF(Q), so the messages equal the direct product's.
    """

    def __init__(self, table: np.ndarray, degree_cap: int, kind: str, chi_table: np.ndarray | None = None):
        self.table = np.ascontiguousarray(table, dtype=np.uint64)
        self.degree_cap = degree_cap
        self.kind = kind
        self.chi = chi_table
        if kind == "unique":
            # degree bound D+1 per spec message framing (true degree <= D)
            self.degree_bound = degree_cap
            self.factors = [i for i in range(degree_cap + 1) if i != 1]
            self.constant = _unique_h_constant(degree_cap)
        elif kind == "range":
            self.degree_bound = degree_cap + 1
            self.factors = list(range(degree_cap + 1))
            self.constant = 1
        elif kind == "collisions":
            self.degree_bound = 2
            self.factors = [0, 1]
            self.constant = _INV2
        else:
            raise ValueError(kind)
        self.num_nodes = self.degree_bound + 2
        self.runs = _factor_runs(self.factors)

    def round_message(self) -> SumcheckRoundMsg:
        u = self.table[0::2]
        d = vsub(self.table[1::2], u)
        if self.kind == "range":
            uc = self.chi[0::2]
            dc = vsub(self.chi[1::2], uc)
            reps = self._bucket_range(u, d, uc, dc)
            if reps is not None:
                u, d, wc_u, wc_d = reps
                evals = self._evaluate(u, d, chi_u=wc_u, chi_d=wc_d)
            else:
                evals = self._evaluate(u, d, chi_u=uc, chi_d=dc)
        else:
            reps = self._bucket_unique(u, d)
            if reps is not None:
                u, d, counts = reps
                evals = self._evaluate(u, d, counts=counts)
            else:
                evals = self._evaluate(u, d)
        return SumcheckRoundMsg(tuple(evals), self.degree_bound)

    @staticmethod
    def _group(u: np.ndarray, d: np.ndarray):
        if u.size < 1024:
            return None
        u_vals, u_idx = np.unique(u, return_inverse=True)
        d_vals, d_idx = np.unique(d, return_inverse=True)
        keys, inverse = np.unique(u_idx.astype(np.int64) * d_vals.size + d_idx, return_inverse=True)
        if keys.size > 0.7 * u.size:
            return None
        uniq = np.stack([u_vals[keys // d_vals.size], d_vals[keys % d_vals.size]], axis=1)
        return uniq, inverse.reshape(-1)

    def _bucket_unique(self, u, d):
        grouped = self._group(u, d)
        if grouped is None:
            return None
        uniq, inverse = grouped
        counts = np.bincount(inverse).astype(np.uint64) % np.uint64(Q)
        return uniq[:, 0].copy(), uniq[:, 1].copy(), counts

    def _bucket_range(self, u, d, uc, dc):
        grouped = self._group(u, d)
        if grouped is None:
            return None
        uniq, inverse = grouped
        order = np.argsort(inverse, kind="stable")
        starts = np.searchsorted(inverse[order], np.arange(uniq.shape[0]))
        sum_uc = _segment_sums_mod(uc[order], starts)
        sum_dc = _segment_sums_mod(dc[order], starts)
        return uniq[:, 0].copy(), uniq[:, 1].copy(), sum_uc, sum_dc

    def _evaluate(self, u, d, counts=None, chi_u=None, chi_d=None) -> list[int]:
        L = self.num_nodes
        out = [0] * L
        block = max(1, m61.CHUNK // L)
        for lo in range(0, u.size, block):
            cols = slice(lo, lo + block)
            acc = self._factor_product(_blend(u[cols], d[cols], L))
            if chi_u is not None:
                vmul(acc, _blend(chi_u[cols], chi_d[cols], L), out=acc)
            if counts is not None:
                vmul(acc, np.broadcast_to(counts[cols], acc.shape).copy(), out=acc)
            out = [fadd(total, part) for total, part in zip(out, m61.vsum_rows(acc))]
        if self.constant != 1:
            out = [fmul(self.constant, v) for v in out]
        return out

    def _factor_product(self, y: np.ndarray) -> np.ndarray:
        """prod over self.factors of (y - i), elementwise."""
        acc = None
        for factor in self._paired_factors(y, np.empty_like(y)):
            acc = factor.copy() if acc is None else vmul(acc, factor, out=acc)
        return acc

    def _paired_factors(self, y: np.ndarray, term: np.ndarray):
        """Yields the paired factors w + i(S - i) and the single ones, each
        written into ``term``."""
        for total, consts, middle in self.runs:
            if consts:
                w = vmul(y, vsub(y, total, out=term))
                for c in consts:
                    yield vadd(w, c, out=term)
            if middle is not None:
                yield vsub(y, middle, out=term)

    def bind(self, r: int):
        self.table = self._fold(self.table, r)
        if self.chi is not None:
            self.chi = self._fold(self.chi, r)

    @staticmethod
    def _fold(table: np.ndarray, r: int) -> np.ndarray:
        """u + r*(v - u) over the pairs (u, v) = (table[2x], table[2x+1])."""
        u = table[0::2]
        folded = vsub(table[1::2], u)
        vmul(folded, r, out=folded)
        return vadd(u, folded, out=folded)

    def final_value(self) -> int:
        assert self.table.size == 1
        if self.kind == "range":
            val = int(self.chi[0])
            y = int(self.table[0])
            for i in self.factors:
                val = fmul(val, fsub(y, i % Q))
            return val
        y = int(self.table[0])
        acc = self.constant
        for i in self.factors:
            acc = fmul(acc, fsub(y, i % Q))
        return acc


def chi_table_for_point(k: int, point: list[int]) -> np.ndarray:
    """chi_x(point) for every cube index x, little-endian bit order.

    Doubling prepends at the least-significant position, so iterate from the
    highest coordinate down for bit j of x to line up with point[j].
    Each step writes t * p_j at odd and t - t * p_j = t * (1 - p_j) at even
    positions.
    """
    table = np.ones(1, dtype=np.uint64)
    for j in reversed(range(k.bit_length() - 1)):
        doubled = np.empty(2 * table.size, dtype=np.uint64)
        one = vmul(table, point[j], out=doubled[1::2])
        vsub(table, one, out=doubled[0::2])
        table = doubled
    return table


# ---------------------------------------------------------------------------
# Sum-check verification (streamed messages, pre-drawn randomness)
# ---------------------------------------------------------------------------


@dataclass
class SumcheckOutcome:
    verified: bool
    rounds: int
    reason: str = ""


def run_sumcheck(
    claim: int,
    prover_rounds,
    rs: list[int],
    num_nodes: int,
    final_eval,
    on_message=None,
) -> SumcheckOutcome:
    """Generic sum-check verifier loop.

    ``prover_rounds(j, r_prev)`` returns round j's node evaluations (the
    prover binds r_prev first); messages are streamed through constant-memory
    node evaluation; ``final_eval(rs)`` must equal the surviving claim.
    """
    weights = _weights_cached(num_nodes)
    current = claim % Q
    r_prev = None
    for j, r in enumerate(rs):
        message = prover_rounds(j, r_prev)
        if on_message is not None:
            on_message(message)
        if len(message) != num_nodes:
            return SumcheckOutcome(False, j, "bad message length")
        stream = m61.StreamedNodeEval(r, num_nodes, list(weights))
        for v in message:
            stream.feed(int(v) % Q)
        if fadd(stream.at_zero, stream.at_one) != current:
            return SumcheckOutcome(False, j, "round-consistency check failed")
        current = stream.result()
        r_prev = r
    expected = final_eval() % Q
    if current != expected:
        return SumcheckOutcome(False, len(rs), "final evaluation mismatch")
    return SumcheckOutcome(True, len(rs))


# ---------------------------------------------------------------------------
# Prover strategies
# ---------------------------------------------------------------------------


class HonestStreamProver(ProverStrategy):
    """Stores the stream, claims the true unique (and, when asked, collision)
    count, answers sum-checks from honest table folding."""

    name = "honest-stream"
    honest = True

    def ingest(self, samples: np.ndarray, k: int):
        self.freq = np.bincount(np.asarray(samples, dtype=np.int64), minlength=k).astype(np.uint64)
        self.k = k

    def effective_freq(self, degree_cap: int) -> np.ndarray:
        return self.freq

    def cap_exceeded(self, degree_cap: int) -> bool:
        return int(self.freq.max(initial=0)) > degree_cap

    def claim_unique(self, degree_cap: int) -> int:
        return int((self.effective_freq(degree_cap) == 1).sum())

    def build_engines(self, degree_cap: int, zeta: list[int]):
        freq = self.effective_freq(degree_cap)
        main = _SumcheckEngine(freq, degree_cap, "unique")
        rng_chi = chi_table_for_point(self.k, zeta)
        rng_eng = _SumcheckEngine(freq, degree_cap, "range", chi_table=rng_chi)
        return main, rng_eng

    def collision_freq(self) -> np.ndarray:
        return self.freq

    def claim_collisions(self) -> int:
        return _collision_count(self.collision_freq())

    def build_collision_engine(self):
        return _SumcheckEngine(self.collision_freq(), 2, "collisions")


def _collision_count(freq: np.ndarray) -> int:
    f = freq.astype(np.int64)
    return int((f * (f - 1) // 2).sum())


class DecisionFlipProver(HonestStreamProver):
    """Biases the claimed deciding count across its threshold by running the
    honest machinery on a doctored frequency table; the final extension
    check catches the mismatch with overwhelming probability.

    Where the unique count decides, every sum-check runs on a table whose
    unique count is pushed across ``threshold_count``. Where tau <= 0 and
    the collision count decides, only the collision sum-check runs on a
    doctored table, whose collision count is pushed across
    ``collision_threshold``; the unique count and the range certificate stay
    honest, so the collision sum-check's final check is the one that fires."""

    name = "decision-flip"
    honest = False

    def __init__(self, params: UniformityParams):
        self.params = params

    def ingest(self, samples, k):
        super().ingest(samples, k)
        if self.params.decision_statistic == "collisions":
            self.doctored = _flip_collisions(self.freq, self.params.collision_threshold)
            return
        freq = self.freq.astype(np.int64)
        z = int((freq == 1).sum())
        target = int(2 * self.params.threshold_count - z)
        target = max(0, min(target, freq.sum()))
        uniques = np.flatnonzero(freq == 1)
        zeros = np.flatnonzero(freq == 0)
        heavy = np.flatnonzero(freq >= 2)
        if z > self.params.threshold_count:
            # merge unique pairs until the claim crosses below
            need = (z - target + 1) // 2
            for i in range(min(need, uniques.size // 2)):
                freq[uniques[2 * i]] = 2
                freq[uniques[2 * i + 1]] = 0
        else:
            # split mass from heavy bins onto empty bins
            need = target - z
            hi = 0
            for i in range(min(need, zeros.size)):
                while hi < heavy.size and freq[heavy[hi]] <= 1:
                    hi += 1
                if hi >= heavy.size:
                    break
                freq[zeros[i]] = 1
                freq[heavy[hi]] -= 1
            # note: splitting may also turn a heavy bin into a unique
        self.freq = freq.astype(np.uint64)

    def collision_freq(self) -> np.ndarray:
        return self.doctored if self.params.decision_statistic == "collisions" else self.freq


def _flip_collisions(freq: np.ndarray, collision_threshold: float) -> np.ndarray:
    """Table with its collision count reflected across the threshold, one
    moved sample at a time: onto the fullest bin to raise the count, from the
    fullest to the emptiest bin to lower it, until the target is crossed or
    no move helps."""
    freq = freq.astype(np.int64)
    count = _collision_count(freq)
    target = 2 * collision_threshold - count
    raise_count = count <= collision_threshold
    no_donor = np.iinfo(np.int64).max
    while count <= target if raise_count else count > target:
        if raise_count:
            dst = int(freq.argmax())
            donors = np.where(freq > 0, freq, no_donor)
            donors[dst] = no_donor
            src = int(donors.argmin())
            if donors[src] == no_donor:
                break
        else:
            src, dst = int(freq.argmax()), int(freq.argmin())
            if freq[src] - freq[dst] <= 1:
                break
        count += int(freq[dst] - freq[src] + 1)
        freq[src] -= 1
        freq[dst] += 1
    return freq.astype(np.uint64)


class ShiftClaimProver(HonestStreamProver):
    """Claims Z + 1 with otherwise honest messages; dies at round one."""

    name = "shift-claim"
    honest = False

    def claim_unique(self, degree_cap: int) -> int:
        return super().claim_unique(degree_cap) + 1


class RangeClampProver(HonestStreamProver):
    """Hides an over-cap frequency: the main sum-check runs on the true table
    with an internally consistent claim, while the range certificate runs on
    a clamped table so the zero total looks plausible. The verifier's
    maintained extension value exposes the clamped table at the final check."""

    name = "range-clamp"
    honest = False

    def cap_exceeded(self, degree_cap: int) -> bool:
        return False  # lies about the cap

    def claim_unique(self, degree_cap: int) -> int:
        # internally consistent total of the capped interpolant over the
        # true table, so the main sum-check verifies
        h_values = [1 if i == 1 else 0 for i in range(degree_cap + 1)]
        weights = list(_weights_cached(degree_cap + 1))
        vals, counts = np.unique(self.freq, return_counts=True)
        total = 0
        for v, c in zip(vals, counts):
            total = fadd(total, fmul(lagrange_h_eval(h_values, int(v), weights), int(c) % Q))
        return total

    def build_engines(self, degree_cap: int, zeta: list[int]):
        main = _SumcheckEngine(self.freq, degree_cap, "unique")
        clamped = np.minimum(self.freq, np.uint64(degree_cap))
        rng_eng = _SumcheckEngine(
            clamped, degree_cap, "range", chi_table=chi_table_for_point(self.k, zeta)
        )
        return main, rng_eng


ADVERSARIES = {
    cls.name: cls for cls in (DecisionFlipProver, ShiftClaimProver, RangeClampProver)
}


# ---------------------------------------------------------------------------
# Protocol orchestration
# ---------------------------------------------------------------------------


def uniformity_verdict(z_verified: int, threshold_count: float) -> str:
    return "not uniform" if z_verified <= threshold_count else "uniform"


def collision_verdict(c_verified: int, collision_threshold: float) -> str:
    return "not uniform" if c_verified > collision_threshold else "uniform"


def engine_rounds(engine: _SumcheckEngine):
    """``prover_rounds`` callback for run_sumcheck backed by one engine."""

    def rounds(j, r_prev):
        if r_prev is not None:
            engine.bind(r_prev)
        return engine.round_message()

    return rounds


def range_final_value(state: StreamVerifierState, degree_cap: int) -> int:
    """chi(r2, zeta) * prod_{i=0..D} (a(r2) - i) from the verifier's registers."""
    acc = state.chi_pair(state.r2, state.zeta)
    for i in range(degree_cap + 1):
        acc = fmul(acc, fsub(state.a_at_r2, i % Q))
    return acc


class UniformityVerifier:
    memory_limit = None  # classical protocol; no quantum copies at all

    def __init__(self, params: UniformityParams, max_widenings: int = 4):
        self.params = params
        self.max_widenings = max_widenings
        self.extras = {
            "k": params.k,
            "epsilon": params.epsilon,
            "n": params.n,
            "tau": params.tau,
            "threshold_count": params.threshold_count,
            "degree_cap": params.degree_cap,
            "b": params.b,
            "in_regime": params.in_regime,
            "decision_statistic": params.decision_statistic,
        }
        if params.decision_statistic == "collisions":
            self.extras["collision_threshold"] = params.collision_threshold

    def run(self, session, prover):
        p = self.params
        degree_cap = p.degree_cap
        collisions = p.decision_statistic == "collisions"
        rng_stream = session.rng("stream")
        rng_points = session.rng("points")
        rng_collision = session.rng("collision-point") if collisions else None
        for attempt in range(self.max_widenings + 1):
            state = StreamVerifierState(p.k, rng_points, rng_collision)
            samples = session.oracle_v.sample_batch(rng_stream, p.n)
            state.update_batch(samples)
            session.channel.count_raw_bits("v->p", p.n * p.b, note="sample-stream")
            prover.ingest(samples, p.k)
            if prover.cap_exceeded(degree_cap):
                session.channel.send_bits("p->v", [1], session.next_round())
                degree_cap = min(2 * degree_cap, p.n)
                continue
            session.channel.send_bits("p->v", [0], session.next_round())
            z_claim = prover.claim_unique(degree_cap)
            session.channel.send_structured("p->v", z_claim, session.next_round())
            main_eng, range_eng = prover.build_engines(degree_cap, state.zeta)
            counter = {"fe": 1}  # the claim

            def count_msg(message):
                counter["fe"] += len(message)
                session.channel.count_raw_bits("p->v", FIELD_BITS * len(message), note="sumcheck-msg")

            h_values = [1 if i == 1 else 0 for i in range(degree_cap + 1)]
            main_out = run_sumcheck(
                z_claim % Q,
                engine_rounds(main_eng),
                state.r,
                degree_cap + 2,
                lambda: lagrange_h_eval(h_values, state.a_at_r, list(_weights_cached(degree_cap + 1))),
                on_message=count_msg,
            )
            if not main_out.verified:
                raise ProtocolAbort(f"unique-count sum-check rejected: {main_out.reason}")

            # the certificate asserts a zero total, whatever the prover says
            range_out = run_sumcheck(
                0,
                engine_rounds(range_eng),
                state.r2,
                degree_cap + 3,
                lambda: range_final_value(state, degree_cap),
                on_message=count_msg,
            )
            if not range_out.verified:
                raise ProtocolAbort(f"range certificate rejected: {range_out.reason}")
            if collisions:
                c_claim = prover.claim_collisions()
                session.channel.send_structured("p->v", c_claim, session.next_round())
                counter["fe"] += 1
                coll_out = run_sumcheck(
                    c_claim % Q,
                    engine_rounds(prover.build_collision_engine()),
                    state.r3,
                    4,
                    lambda: collision_h(state.a_at_r3),
                    on_message=count_msg,
                )
                if not coll_out.verified:
                    raise ProtocolAbort(f"collision-count sum-check rejected: {coll_out.reason}")
            self.extras["attempts"] = attempt + 1
            self.extras["final_degree_cap"] = degree_cap
            self.extras["prover_field_elements"] = counter["fe"]
            self.extras["peak_field_elements"] = state.peak_field_elements
            self.extras["z_verified"] = z_claim
            if collisions:
                self.extras["c_verified"] = c_claim
                return collision_verdict(c_claim, p.collision_threshold)
            return uniformity_verdict(z_claim, p.threshold_count)
        raise ProtocolAbort("degree cap kept overflowing after widening")


def range_certificate(freq: np.ndarray, degree_cap: int, state: StreamVerifierState) -> SumcheckOutcome:
    """Standalone range-certificate run against an honest table (test hook)."""
    eng = _SumcheckEngine(
        np.asarray(freq, dtype=np.uint64),
        degree_cap,
        "range",
        chi_table=chi_table_for_point(freq.size, state.zeta),
    )
    return run_sumcheck(
        0, engine_rounds(eng), state.r2, degree_cap + 3, lambda: range_final_value(state, degree_cap)
    )


@dataclass
class UniformityConfig:
    k: int = 1 << 16
    epsilon: float = 0.75
    degree_cap: int = 32
    distribution: str = "uniform"
    support_fraction: float = 1 / 8
    allow_small_epsilon: bool = False
    record_transcript: bool = False
    trial_keys: ClassVar[dict] = {"adversary": "honest"}

    def params(self) -> UniformityParams:
        return UniformityParams(
            k=self.k,
            epsilon=self.epsilon,
            degree_cap=self.degree_cap,
            allow_small_epsilon=self.allow_small_epsilon,
        )

    def formula(self) -> dict:
        p = self.params()
        out = {"n": p.n, "tau": p.tau, "threshold_count": p.threshold_count, "b": p.b}
        if p.decision_statistic == "collisions":
            # tau <= 0: the collision threshold is the one that decides
            out["collision_threshold"] = p.collision_threshold
        return out

    def make_distribution(self, which: str):
        if which == "uniform":
            return UniformDistribution(self.k)
        if which == "support_fraction":
            return SupportFractionDistribution(self.k, self.support_fraction)
        if which == "point_mass":
            return PointMassDistribution(self.k)
        raise ValueError(f"unknown distribution {which}")

    def task(self):
        """Many-vs-one task view: uniform vs far distributions (classical
        channel); feeds the distinguisher transformation."""
        from .harness import ManyVsOneTask

        return ManyVsOneTask(
            name="uniformity",
            accept_instance=self.make_distribution("uniform"),
            reject_sampler=lambda rng: self.make_distribution("support_fraction"),
            instance_kind="classical-distribution",
            dim=self.k,
            accept_output="uniform",
        )

    def sample_instance(self, which: str, rng: np.random.Generator):
        if which == "accept":
            return self.make_distribution("uniform")
        if which == "reject":
            return self.make_distribution(self.distribution if self.distribution != "uniform" else "support_fraction")
        return self.make_distribution(self.distribution)

    def run_one(self, hidden, prover, seed: int, prover_hidden=None) -> SessionResult:
        verifier = UniformityVerifier(self.params())
        oracle_v = CopyOracle(hidden, instance_kind="classical-distribution")
        oracle_p = CopyOracle(
            prover_hidden if prover_hidden is not None else hidden,
            instance_kind="classical-distribution",
        )
        channel = Channel("classical", record_transcript=self.record_transcript)
        return run_session(verifier, prover, (oracle_v, oracle_p), channel, seed)

    def make_prover(self, name: str) -> ProverStrategy:
        if name == "decision-flip":
            return DecisionFlipProver(self.params())
        return choose("adversary", name, {"honest": HonestStreamProver, **ADVERSARIES})()

    def judge(self, output, hidden) -> bool:
        """Valid iff the verdict matches the hidden distribution side."""
        if hidden.name == "uniform":
            return output == "uniform"
        return output == "not uniform"
