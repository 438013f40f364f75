"""Streaming interactive proof for memory-constrained uniformity testing.

The verifier streams n samples with O(polylog k) persistent state, keeping
the multilinear extension of the frequency vector at pre-drawn random points,
then delegates the unique-elements count Z to the prover through a sum-check
over the Boolean cube (with the unique-indicator interpolant capped at
degree D) plus a vanishing-product range certificate that catches
frequencies above the cap. Decision: "not uniform" iff the verified Z is at
most n * tau.

The verifier reads the stream once and forwards it to the prover, which
answers from it, never from its own oracle (``prover_hidden`` changes
nothing here). Nothing the pass keeps depends on D, so after it the prover
announces D in ceiling.bit_length() bits; the verifier aborts unless
1 <= D <= ceiling = min(D0 * 2^MAX_WIDENINGS, n), D0 = ``degree_cap``. The
honest D is max f. D is fixed before any challenge: too small a D fails the
range certificate, and a larger one gains nothing, as the verdict does not
depend on D and each sum-check's soundness error, about b (D + 2) / q, grows
with it. ``peak_field_elements`` (the O(b) registers) leaves out the weight
tables of D + 2 and D + 3 entries: max f + 2 and max f + 3 when honest.

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

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import ClassVar, NamedTuple

import numpy as np

from . import m61
from .harness import ManyVsOneTask, Protocol, ProtocolAbort, ProverStrategy, Verifier, choose
from .m61 import Q, fadd, fmul, fsub, vadd, vmul, vsub

FIELD_BITS = 61
MAX_WIDENINGS = 4  # an announced cap is at most 2^MAX_WIDENINGS * D0 (and n)
SUMCHECK_NAMES = {
    "unique": "unique-count sum-check",
    "range": "range certificate",
    "collisions": "collision-count sum-check",
}


# ---------------------------------------------------------------------------
# Hidden instances: classical distributions over [0, k)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SupportDistribution:
    """Uniform over the first ``support`` of the k values; TV distance
    1 - support/k from uniform."""

    k: int
    support: int
    name: str

    def draw_batch(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.integers(0, self.support, size=size)


# ---------------------------------------------------------------------------
# Streaming verifier state
# ---------------------------------------------------------------------------


class StreamVerifierState:
    """Persistent verifier registers: three b-element random points, two
    maintained extension values, claims and counters: the fixed O(b)
    register count ``peak_field_elements`` gives, with O(1) transient
    scratch besides. It does not count the sum-checks' (D + 2)- and
    (D + 3)-entry Lagrange weight tables, which ``run_sumcheck`` hands every
    round's ``StreamedNodeEval``. The 2^(b/2)-entry eq tables of
    ``update_batch`` only vectorize the simulation.

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

    def update_batch(self, samples: np.ndarray):
        """Vectorized transcript of per-sample updates (same per-sample values,
        same persistent registers; asserted equal to sequential updates) in
        chunks of m61.CHUNK samples: chi_x(p) = low[x mod 2^h] high[x >> h],
        h = b // 2, from the eq tables of p's two halves."""
        samples = np.asarray(samples)
        if samples.size == 0:
            return
        if int(samples.min()) < 0 or int(samples.max()) >= self.k:
            raise ValueError("sample index out of range")
        points = [getattr(self, point) for point, _ in self.maintained]
        h = self.b // 2
        low = np.stack([chi_table_for_point(1 << h, p[:h]) for p in points])
        high = np.stack([chi_table_for_point(1 << (self.b - h), p[h:]) for p in points])
        totals = [0] * len(points)
        for lo in range(0, samples.size, m61.CHUNK):
            chunk = samples[lo : lo + m61.CHUNK].astype(np.intp)
            chi = np.take(low, chunk & ((1 << h) - 1), axis=1)
            vmul(chi, np.take(high, chunk >> h, axis=1), out=chi)
            totals = [fadd(total, part) for total, part in zip(totals, m61.vsum_rows(chi))]
        for (_, value), total in zip(self.maintained, totals):
            setattr(self, value, fadd(getattr(self, value), total))
        self.sample_count += samples.size

    def chi_pair(self, point: list[int], other: list[int]) -> int:
        """chi(point, other) = prod_j ((1-p_j)(1-o_j) + p_j o_j)."""
        acc = 1
        for pj, oj in zip(point, other):
            term = fadd(fmul(pj, oj), fmul(fsub(1, pj), fsub(1, oj)))
            acc = fmul(acc, term)
        return acc


@lru_cache(maxsize=64)
def _weights_cached(num_nodes: int) -> tuple[int, ...]:
    return tuple(m61.lagrange_weights(num_nodes))


def composed_factors(kind: str, degree_cap: int) -> tuple[tuple[int, ...], int]:
    """(factors, c) with the sum-check polynomial g(y) = c * prod_i (y - i).

    "unique": the degree <= D interpolant of [y == 1] on the nodes 0..D,
    whose only nonzero node value is at y = 1. "range": prod_{i=0..D} (y - i),
    which vanishes on every frequency within the cap (the verifier multiplies
    it by chi(x, zeta)). "collisions": y(y - 1)/2, the colliding pairs among
    y equal samples, exact at every degree; the cap is ignored and keys no
    cache entry. A round message of g takes len(factors) + 2 node values.
    """
    return _composed_factors(kind, None if kind == "collisions" else degree_cap)


@lru_cache(maxsize=256)
def _composed_factors(kind: str, degree_cap: int | None) -> tuple[tuple[int, ...], int]:
    if kind == "unique":
        factors = tuple(i for i in range(degree_cap + 1) if i != 1)
        denom = 1
        for i in factors:
            denom = fmul(denom, fsub(1, i))
        return factors, m61.finv(denom)
    if kind == "range":
        return tuple(range(degree_cap + 1)), 1
    if kind == "collisions":
        return (0, 1), m61.finv(2)
    raise ValueError(kind)


def composed_value(kind: str, degree_cap: int, y: int) -> int:
    """g(y) of ``composed_factors(kind, degree_cap)`` at a field element y."""
    factors, acc = composed_factors(kind, degree_cap)
    for i in factors:
        acc = fmul(acc, fsub(y, i))
    return acc


def table_total(kind: str, degree_cap: int, table: np.ndarray) -> int:
    """sum_x g(table[x]) in GF(Q) for g = ``composed_factors(kind, degree_cap)``:
    the total a sum-check of ``kind`` over ``table`` verifies."""
    return DistinctTable.of(table).total(kind, degree_cap)


# ---------------------------------------------------------------------------
# Honest prover sum-check engines
# ---------------------------------------------------------------------------


class DistinctTable(NamedTuple):
    """A table as its sorted distinct entries and, per entry, the index of
    its value among them: table = values[ids]."""

    values: np.ndarray
    ids: np.ndarray

    @classmethod
    def of(cls, table: np.ndarray) -> DistinctTable:
        # a frequency table's entries are small, so ``_rank`` counts them into
        # int32 ids, half the size of _runs' int64 ids. An engine holds its ids
        # for its first round; nothing keeps them between sum-checks, and
        # warm k = 2^16 sessions read near 0 minor faults with either width.
        # The engine's rounds 0 and 1 count their pairs the same way, into
        # int32 pair indices, with ``m61.grouped_sums``' two halves of the
        # pairs as the range weights' transients; dense rounds keep one int64
        # index array from the round they start at (32 KB at k = 2^16). With
        # them, 30 warm k = 2^16 sessions (getrusage, three runs) read 2.5 to
        # 2.6 minor faults a session on average, median 0 and one session of
        # 72, against 1.7 to 1.8, median 0 and one of 37, without them
        return cls(*_rank(np.ascontiguousarray(table, dtype=np.uint64)))

    def total(self, kind: str, degree_cap: int) -> int:
        """``table_total`` of the table: sum over the distinct values y of
        count(y) g(y) in GF(Q)."""
        total = 0
        for value, count in zip(self.values, np.bincount(self.ids, minlength=self.values.size)):
            total = fadd(total, fmul(composed_value(kind, degree_cap, int(value)), int(count) % Q))
        return total


def _rank(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(distinct, ids) of a 1-D array of 64-bit keys below 2^63: its sorted
    distinct keys and the index of every key among them. Keys that are all
    below the array's size are ranked by counting, into int32 ids (0.19 ms
    against the sort's 1.19 ms on a k = 2^16 frequency table); others are
    sorted (``_runs``, int64 ids)."""
    if 0 < keys.size < 1 << 31 and int(keys.max()) < keys.size:
        counted = keys.view(np.int64)
        seen = np.bincount(counted) > 0
        rank = np.cumsum(seen, dtype=np.int32)
        rank -= 1
        return np.flatnonzero(seen).astype(keys.dtype), rank[counted]
    order, starts, ids = _runs(keys)
    return keys[order[starts]], ids


def _runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(order, starts, inverse) of a 1-D array: its argsort, the start of each
    run of equal keys in that order, and the run index of every key."""
    order = np.argsort(keys)
    ordered = keys[order]
    new = np.empty(keys.size, dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    del ordered  # freed before the inverse is built, which lowers the peak on a whole table
    run = np.cumsum(new)
    run -= 1
    inverse = np.empty_like(run)
    inverse[order] = run
    return order, np.flatnonzero(new), inverse


def _segment_sums_mod(
    values: np.ndarray,
    starts: np.ndarray,
    counts: np.ndarray | None = None,
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """Sums mod Q of the segments of canonical ``values`` that begin at
    ``starts`` along the last axis, each element times its integer count,
    written to ``out`` if given; scratch goes into the 1-D uint64 ``work``
    (at least 2 ``values.size`` elements) if given.

    The 29-bit high and 32-bit low halves of the elements are summed apart
    in uint64, exact by this bound: a segment whose counts add up to c sums
    its high halves to below 2^29 c and its low halves to below 2^32 c,
    which for c <= 2^32 stay below 2^61 and 2^64. The counts of one round
    add up to its number of columns, at most 2^31 for any table of at most
    2^32 entries, and a segment without counts has at most that many
    elements. The high sum, below 2^61, times 2^32 mod Q is its 61-bit
    rotation by 32 (2^61 = 1), at most Q. Folding 2^61 = 1 takes the low sum
    below Q + 8 and then their sum below Q + 3, which one subtraction makes
    canonical."""
    sums_shape = values.shape[:-1] + starts.shape
    if out is None:
        out = np.empty(sums_shape, dtype=np.uint64)
    if work is None:
        work = np.empty(2 * values.size, dtype=np.uint64)
    q = np.uint64(Q)
    hi, lo = work[: values.size].reshape(values.shape), work[values.size : 2 * values.size].reshape(values.shape)
    np.right_shift(values, np.uint64(32), out=hi)
    np.bitwise_and(values, np.uint64(0xFFFFFFFF), out=lo)
    if counts is not None:
        hi *= counts
        lo *= counts
    sums = np.add.reduceat(hi, starts, axis=-1, out=out)
    low_sums = np.add.reduceat(lo, starts, axis=-1, out=hi.reshape(-1)[: out.size].reshape(sums_shape))
    top = lo.reshape(-1)[: out.size].reshape(sums_shape)
    np.right_shift(sums, np.uint64(29), out=top)
    sums <<= np.uint64(32)
    sums &= q
    sums |= top
    np.right_shift(low_sums, np.uint64(61), out=top)
    low_sums &= q
    sums += low_sums
    sums += top
    np.right_shift(sums, np.uint64(61), out=top)
    sums &= q
    sums += top
    np.subtract(sums, q, out=top)
    np.minimum(sums, top, out=sums)
    return out


# one entry per polynomial (criterion 2's 800 k = 256 sessions announce caps
# that make 73), each built once, in 2.4 ms at D = 110 (the scalar build: 16 ms)
@lru_cache(maxsize=128)
def _moment_tables(factors: tuple[int, ...], constant: int) -> tuple[np.ndarray, np.ndarray]:
    """(triangle, vandermonde) for g = constant * prod_i (y - i), that is
    for (factors, constant) = ``composed_factors(kind, degree_cap)``.

    With g's monomial coefficients g_j (j < n = deg g + 1),
    triangle[a, p] = g_(a+p) C(a+p, a), zero where a + p >= n, so that
    g(u + t d) = sum_a t^a d^a sum_p triangle[a, p] u^p; and
    vandermonde[t, a] = t^a on the n + 1 message nodes t = 0..n.
    """
    n = len(factors) + 1
    coeffs = np.zeros(n, dtype=np.uint64)  # lowest degree first
    coeffs[0] = constant
    for m, i in enumerate(factors, 1):  # times (y - i): c_j becomes c_(j-1) - i c_j
        scaled = vmul(coeffs[:m], i)
        coeffs[1 : m + 1], coeffs[0] = coeffs[:m], 0
        vsub(coeffs[:m], scaled, out=coeffs[:m])
    # g_(a+p) C(a+p, a) = g_(a+p) (a+p)! / (a! p!): the Hankel matrix of
    # g_m m!, zero for m >= n, scaled by 1/a! down and 1/p! along
    fact, inv_fact = (np.array(x, dtype=np.uint64) for x in m61.factorials(n))
    hankel = np.zeros(2 * n - 1, dtype=np.uint64)
    vmul(coeffs, fact, out=hankel[:n])
    triangle = vmul(hankel[np.add.outer(np.arange(n), np.arange(n))], inv_fact)
    vmul(triangle, inv_fact[:, None], out=triangle)
    powers = np.empty((n + 1, n + 1), dtype=np.uint64)
    powers[1] = np.arange(n + 1)
    return triangle, np.ascontiguousarray(_powers(powers).T)


@lru_cache(maxsize=128)
def _triangle_limbs(factors: tuple[int, ...], constant: int) -> np.ndarray:
    """``m61.split`` of the ``_moment_tables`` triangle, the constant operand
    of the narrow GEMM."""
    return m61.split(_moment_tables(factors, constant)[0])


def _powers(out: np.ndarray) -> np.ndarray:
    """x^p in row p = 0..P-1 of the (P, m) array ``out``, for the x that its
    row 1 holds, built by doubling: rows h+1..2h are rows 1..h times row h,
    one vmul per step."""
    out[0] = 1
    h = 1
    while h + 1 < len(out):
        top = min(2 * h, len(out) - 1)
        vmul(out[1 : top - h + 1], out[h], out=out[h + 1 : top + 1])
        h = top
    return out


# power-ladder elements per block of a round message, whose pairs have at most
# as many distinct d and distinct u as the block has pairs; a k = 2^16 range
# sum-check peaked at 3.1 MiB of traced allocations with this budget, the
# engine's scratch included, and both k = 2^16 sum-checks ran slower with
# 2^15 (one BLAS thread, 2-vCPU Xeon)
_LADDER_ELEMS = 1 << 16

# pairs x nodes^2 of a round at or under which its message and its bind are
# computed in Python ints, where a numpy call's fixed cost outweighs its
# arithmetic (timeit: a vmul of 10 elements takes 13 us, the same 10 products
# in Python ints 1.7 us). nodes^2 = nodes x (deg g + 2) counts a pair's deg g
# factors at every node and about two factors' worth of Python overhead per
# node; that is at most 10 pairs at D = 8 and 62 for the degree-2 collision
# count, and no pair at D >= 30
_TAIL_WORK = 1000

# message nodes at or under which node values are summed in Python ints
# (timeit: 11 us at 10 nodes against numpy's 42 us, 36 us at 17 against 35,
# 126 us at 35 against 44)
_INT_NODES = 17


class _SumcheckEngine:
    """Honest table-folding prover for one b-variate sum-check.

    ``kind`` selects g = ``composed_factors(kind, degree_cap)``; the engine
    sums g(a(x)) over the cube, times chi(x, zeta) = prod_j eq(x_j, zeta_j)
    for "range" (``chi_point`` = zeta). Messages are the round polynomial on
    the integer nodes 0..L-1, L = len(factors) + 2 = deg g + 2. chi stays
    factored: round j weights column x by the eq suffix chi(x, zeta_(j+1..))
    and multiplies the sum by the line prod_(i<j) eq(r_i, zeta_i) eq(t, zeta_j).
    The suffix table is built once; each bind sums its entry pairs, which
    drops its lowest coordinate since eq(0, z) + eq(1, z) = 1.

    The table is kept as ``values[ids]``: a few distinct values and one id
    per entry. Each round ranks its column pairs (ids[2x], ids[2x+1]) by one
    int64 key, u-id first, as ``DistinctTable.of`` ranks a table: by
    counting when every key is below the number of columns, which the first
    rounds of a frequency table meet (values.size^2 <= columns), and by
    sorting otherwise. Each distinct pair (u, d = v - u), in key order, is
    weighted by its count or by the sum of its columns' eq suffix entries
    (``m61.grouped_sums``); ``bind(r)`` folds only the distinct pairs,
    u + r d, and the pair indices become the next ids. A frequency table has
    few distinct pairs in its early rounds, and far fewer distinct u than
    pairs after that.

    Once a round finds as many distinct pairs as columns, the engine is
    ``dense`` for the rest of the sum-check: it keeps the table itself, in
    column order (``ids`` = 0, 1, ...), takes each column pair as its own
    pair, weighted 1 or by its eq suffix entry, and folds the table as it
    is, with no ranking. Folding at a random r keeps distinct pairs distinct
    except with probability about pairs^2 / Q, and every round is exact
    either way.

    A round message comes from power moments. With y = u + t d on each
    pair and its weight w, sum w g(u + t d) = sum_a t^a sum_p T[a, p] M[a, p],
    where M[a, p] = sum w d^a u^p are the moments and T[a, p] =
    g_(a+p) C(a+p, a) is the coefficient-binomial triangle of
    ``_moment_tables``. The pairs are taken in blocks of
    ``_LADDER_ELEMS`` / 2n (n = deg g + 1), so that the power ladder of a
    block's d and of the u of its runs holds at most ``_LADDER_ELEMS``
    elements. A block weights the powers of its d and sums them over each
    run of equal u into S[a, s] = sum w d^a, so that M = S U^T with
    U[p, s] = u_s^p built once per run; a run cut by the block's end carries
    its partial sums into the next block. In a dense round every pair is a
    run of its own, and S is its weighted d-powers, with nothing to sum. A
    block with at least n runs forms M with one exact limb-split float64
    GEMM (``m61.matmul``) and contracts it with T. A narrower block, which
    the last rounds of every sum-check and every small table have,
    contracts the powers first, h_a = sum_p T[a, p] u^p, so that its GEMM
    output is n x s rather than n x n, from T's limbs split once per
    polynomial (``_triangle_limbs``). The Vandermonde matrix of the nodes
    turns the coefficients in t, times the line, into node values, in
    Python ints up to ``_INT_NODES`` nodes. A round whose pairs x nodes^2 is
    at most ``_TAIL_WORK`` instead evaluates w g(u + t d) of every pair at
    every node in Python ints, and binds in them too. Every step is exact
    arithmetic in GF(Q), so the messages equal those of evaluating chi g at
    every node.

    The engine keeps one scratch buffer for as long as it lives, grown to
    its largest block (9 ``_LADDER_ELEMS`` / 2 elements at most). Each block
    writes its power ladder, segment-sum scratch and the GEMM's float64
    limbs into it, so that a round touches no fresh pages; its ``vmul``
    temporaries are new arrays. Each engine ranks its own table
    (``DistinctTable.of``).

    Each fork stays because removing it measured slower (median
    ``process_time``, one BLAS thread, 2-vCPU Xeon; "sessions" are whole
    uniformity sessions, interleaved with the full engine's in one process,
    at k = 2^16, eps = 0.75; k = 4096, eps = 1; and k = 256, eps = 0.9):
    - the wide GEMM branch: narrow-only sum-checks took x1.84 at k = 2^16
      and x1.30 at k = 4096;
    - the narrow GEMM branch: wide-only took x2.48 at k = 256, D = 128;
    - dense rounds: ranked to the end, sessions took x1.17 at k = 2^16,
      x1.15 at k = 4096 and x1.14 at k = 256 (uniform);
    - counting the pairs of a round (``_rank``): sorting them took x1.07 at
      k = 2^16, whose rounds 0 and 1 count;
    - the Python-int tail: numpy down to the last round took x1.03 at
      k = 2^16, x1.10 at k = 4096 and x1.07 at k = 256;
    - the triangle's limbs, split once: splitting them on every narrow GEMM
      took x1.05 at k = 256 on the support_fraction source (D about 110);
    - node values in Python ints up to ``_INT_NODES`` nodes: the numpy
      Vandermonde product took x1.02 at k = 2^16 and x1.05 at k = 4096;
    - the scratch and the ``out``/``work``/``limbs`` buffers of
      ``_segment_sums_mod`` and ``m61.matmul``: without them a warm k = 2^16
      session went from 0 to 3434 minor faults and about 8% more CPU;
    - 2^16 ladder elements per block: 2^15 and 2^14 took 96-113 and
      140-144 ms a k = 2^16 session, against 83-97 ms;
    - the counting rank of ``DistinctTable.of``: a sort takes 1.19 ms
      against 0.19 ms per ranking at k = 2^16, three rankings a session;
    - the verifier's Lagrange weight table (``_weights_cached``): a streamed
      evaluation without it took 126 us per 35-node round, against 90 us.
    """

    def __init__(self, table: np.ndarray, degree_cap: int, kind: str, chi_point: list[int] | None = None):
        self.values, self.ids = DistinctTable.of(table)
        self.degree_cap = degree_cap
        self.kind = kind
        self.zeta = None if chi_point is None else list(chi_point)  # the coordinates not yet bound
        self.prefix = 1  # prod of eq(r_i, zeta_i) over the bound rounds
        # the eq suffix chi(x, zeta_(j+1..)) of every column x of the current round j
        self.suffix = None if chi_point is None else chi_table_for_point(self.ids.size // 2, self.zeta[1:])
        self.polynomial = composed_factors(kind, degree_cap)
        self.triangle, self.vandermonde = _moment_tables(*self.polynomial)
        self.triangle_limbs = _triangle_limbs(*self.polynomial)
        self.num_nodes = len(self.vandermonde)
        self.pair_work = self.num_nodes**2  # one pair's share of a round's work (``_TAIL_WORK``)
        self.node_rows = self.vandermonde.tolist() if self.num_nodes <= _INT_NODES else None
        self.dense = False  # every column pair distinct, from this round on
        self._index = None  # 0, 1, ...: the ids of a dense table
        # grown by _evaluate and kept until the engine goes; made per block
        # instead, it lets a warm k = 2^16 session's heap outgrow glibc's
        # trim threshold and re-fault about 3400 pages per session, while the
        # per-call vmul temporaries (0.7 MB) of its blocks leave that count
        # near 0 (a few sessions in 25 re-fault up to about 60 pages). The
        # dense rounds' ladders are written into it too: allocated per block,
        # they left that count near 0 but raised the maximum RSS of 30 warm
        # sessions from 41.1 to 41.7 MB. The Python-int tail's lists and the
        # dense rounds' weights of 1 are per-round allocations of at most a
        # round's pairs
        self._scratch = np.empty(0, dtype=np.uint64)
        self._pair_up()

    def _pair_up(self):
        """This round's distinct column pairs (``pairs``, rows of (u-id, v-id)
        in key order, or the columns themselves once dense), their weights and
        the pair index of every column."""
        columns = self.ids.reshape(-1, 2)
        size = columns.shape[0]
        if self.dense:
            if self._index is None:  # the first dense pairing puts the table in column order
                self.values = self.values[self.ids]
                self.ids = self._index = np.arange(self.values.size)
            self.pairs = self.ids.reshape(-1, 2)
            self.pair_of_column = self._index[:size]
            self.weight = np.ones(size, dtype=np.uint64) if self.zeta is None else self.suffix
            return
        keys = np.multiply(columns[:, 0], self.values.size, dtype=np.int64)
        keys += columns[:, 1]
        distinct, self.pair_of_column = _rank(keys)
        self.pairs = np.stack(np.divmod(distinct, self.values.size), axis=1)
        if self.zeta is None:
            self.weight = np.bincount(self.pair_of_column, minlength=distinct.size).astype(np.uint64)
        else:
            self.weight = m61.grouped_sums(self.pair_of_column, self.suffix, distinct.size)
        self.dense = distinct.size == size

    def _line(self) -> tuple[int, int]:
        """(alpha, beta) with prefix * eq(t, zeta_j) = alpha + beta t."""
        z = self.zeta[0]
        return fmul(self.prefix, fsub(1, z)), fmul(self.prefix, fsub(fadd(z, z), 1))

    def round_message(self) -> tuple[int, ...]:
        u = self.values[self.pairs[:, 0]]
        d = vsub(self.values[self.pairs[:, 1]], u)
        return tuple(self._evaluate(u, d, self.weight, None if self.zeta is None else self._line()))

    def _evaluate(self, u, d, weight, line=None) -> list[int]:
        """Node values of (alpha + beta t) sum_i w_i g(u_i + t d_i) over the
        pairs i; unless the engine is dense, pairs with equal u next to each
        other share one run. Without a line the weights are integer counts
        and the line is 1."""
        if u.size * self.pair_work <= _TAIL_WORK:
            return self._int_message(u.tolist(), d.tolist(), weight.tolist(), line)
        n = len(self.triangle)  # powers 0..deg g
        if line is None and weight.min() == weight.max() == 1:
            weight = None  # counts of 1
        block = max(1, _LADDER_ELEMS // (2 * n))
        span = n * min(block, u.size)  # elements of one block's n x pairs array
        if self._scratch.size < 9 * span:
            del self._scratch  # freed before the larger one is made, which keeps the peak down
            self._scratch = np.empty(9 * span, dtype=np.uint64)
        # two spans hold the ladder and one the moments; the last six hold the
        # segment sums' scratch, then the GEMM's limbs
        scratch = self._scratch
        ladder, moment_space, shared = scratch[: 2 * span], scratch[2 * span : 3 * span], scratch[3 * span : 9 * span]
        limbs = shared.view(np.float64)
        # [a]: sum w d^a sum_p triangle[a, p] u^p, the coefficients of the
        # round polynomial in t, summed in Python ints
        sums = [0] * n
        carry = None  # sum w d^a of a run of u cut by the previous block's end
        for lo in range(0, u.size, block):
            hi = min(lo + block, u.size)
            m = hi - lo
            if self.dense:  # every pair is a run of its own
                runs, whole = np.arange(m), m
            else:
                runs = np.flatnonzero(np.concatenate(([True], u[lo + 1 : hi] != u[lo : hi - 1])))  # runs of equal u
                whole = runs.size - (hi < u.size and u[hi] == u[hi - 1])  # the last run may go on
            # the ladder holds the powers of every pair's d, then of each run's u;
            # "clip" (the indices are in range) writes straight to out, "raise" would buffer
            powers = ladder[: n * (m + runs.size)].reshape(n, -1)
            powers[1, :m] = d[lo:hi]
            u[lo:hi].take(runs, out=powers[1, m:], mode="clip")
            moments, u_powers = _powers(powers)[:, :m], powers[:, m:]
            if line is not None or (self.dense and weight is not None):
                vmul(moments, weight[lo:hi], out=moments)
            if not self.dense:
                counts = None if line is not None or weight is None else weight[lo:hi]
                moments = _segment_sums_mod(
                    moments, runs, counts, out=moment_space[: n * runs.size].reshape(n, -1), work=shared
                )
                if carry is not None:
                    vadd(moments[:, 0], carry, out=moments[:, 0])
                carry = moments[:, whole].copy() if whole < runs.size else None
                moments, u_powers = moments[:, :whole], u_powers[:, :whole]
            if u_powers.shape[1] >= n:
                # M[a, p] = sum w d^a u^p, an n x n GEMM output
                pair = limbs[: 3 * moments.size], limbs[3 * moments.size : 6 * moments.size]
                terms = vmul(m61.matmul(moments, u_powers.T, limbs=pair), self.triangle)
            else:
                # S[a, s] h_a(u_s), an n x s GEMM output
                terms = vmul(moments, m61.matmul(self.triangle_limbs, u_powers, limbs=(limbs, limbs)))
            sums = [total + part for total, part in zip(sums, m61.vsum_rows(terms))]
        coeffs = [total % Q for total in sums] + [0]  # room for the line's power n
        if line is not None:  # times alpha + beta t: beta shifts one power up
            coeffs = [(line[0] * c + line[1] * below) % Q for c, below in zip(coeffs, [0, *coeffs])]
        if self.node_rows is not None:
            return [sum(map(operator.mul, row, coeffs)) % Q for row in self.node_rows]
        return m61.vsum_rows(vmul(self.vandermonde, np.array(coeffs, dtype=np.uint64)))

    def _int_message(self, u: list[int], d: list[int], weight: list[int], line) -> list[int]:
        """``_evaluate`` in Python ints: w c prod_i (y - i) of every pair at
        y = u + t d, for every node t."""
        factors, constant = self.polynomial
        out = []
        for t in range(self.num_nodes):
            total = sum(w * math.prod([y - i for i in factors]) for y, w in zip(u, weight))
            out.append(total * (constant if line is None else constant * (line[0] + line[1] * t)) % Q)
            u = [(y + e) % Q for y, e in zip(u, d)]
        return out

    def bind(self, r: int):
        if self.pairs.shape[0] * self.pair_work <= _TAIL_WORK:  # a tail round, in Python ints
            values = self.values.tolist()
            folded = [(values[a] + r * (values[b] - values[a])) % Q for a, b in self.pairs.tolist()]
            self.values = np.array(folded, dtype=np.uint64)
        else:
            self.values = self._fold(self.values[self.pairs].reshape(-1), r)
        self.ids = self.pair_of_column
        if self.zeta is not None:
            alpha, beta = self._line()
            self.prefix = fadd(alpha, fmul(beta, r))
            self.zeta = self.zeta[1:]
            self.suffix = vadd(self.suffix[0::2], self.suffix[1::2])
        if self.ids.size > 1:
            self._pair_up()

    @staticmethod
    def _fold(table: np.ndarray, r: int) -> np.ndarray:
        """u + r*(v - u) over the pairs (u, v) = (table[2x], table[2x+1])."""
        u = table[0::2]
        folded = vsub(table[1::2], u)
        vmul(folded, r, out=folded)
        return vadd(u, folded, out=folded)


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
    node evaluation; ``final_eval()`` must equal the surviving claim.
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
        stream = m61.StreamedNodeEval(r, num_nodes, weights)
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


def engine_rounds(engine: _SumcheckEngine):
    """``prover_rounds`` callback for run_sumcheck backed by one engine."""

    def rounds(j, r_prev):
        if r_prev is not None:
            engine.bind(r_prev)
        return engine.round_message()

    return rounds


def verify_sumcheck(
    kind: str,
    claim: int,
    engine: _SumcheckEngine,
    point: list[int],
    degree_cap: int,
    a_value: int,
    chi: int = 1,
    on_message=None,
) -> SumcheckOutcome:
    """Verifies the prover ``engine``'s sum-check of chi * g(a(x)) against
    ``claim`` at ``point``, for g = ``composed_factors(kind, degree_cap)``.

    The verifier fixes the message length at len(factors) + 2 and closes the
    last round with chi * g(a_value), where a_value is the frequency
    extension it maintained at ``point``.
    """
    factors, _ = composed_factors(kind, degree_cap)
    return run_sumcheck(
        claim,
        engine_rounds(engine),
        point,
        len(factors) + 2,
        lambda: fmul(chi, composed_value(kind, degree_cap, a_value)),
        on_message=on_message,
    )


# ---------------------------------------------------------------------------
# Prover strategies
# ---------------------------------------------------------------------------


class HonestStreamProver(ProverStrategy):
    """Stores the stream's frequency table and answers each sum-check from
    ``table(kind, degree_cap)``: its claim is the table's total and its
    messages come from folding the table. The announced cap is at least
    every frequency, so the unique-count total is the number of frequencies
    equal to 1."""

    name = "honest-stream"

    def ingest(self, samples: np.ndarray, k: int):
        self.freq = np.bincount(np.asarray(samples, dtype=np.int64), minlength=k).astype(np.uint64)

    def announced_cap(self, degree_cap: int) -> int:
        """The cap D to announce after the pass, given the config's cap: the
        largest frequency, the tightest cap whose range certificate passes."""
        return int(self.freq.max(initial=0))

    def table(self, kind: str, degree_cap: int) -> np.ndarray:
        """The frequency table the sum-check of ``kind`` runs on."""
        return self.freq

    def claim(self, kind: str, degree_cap: int) -> int:
        return table_total(kind, degree_cap, self.table(kind, degree_cap))

    def engine(self, kind: str, degree_cap: int, zeta: list[int] | None = None) -> _SumcheckEngine:
        return _SumcheckEngine(self.table(kind, degree_cap), degree_cap, kind, chi_point=zeta)


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

    def ingest(self, samples, k):
        super().ingest(samples, k)
        if self.cfg.decision_statistic == "collisions":
            self.doctored = _flip_collisions(self.freq, self.cfg.collision_threshold)
            return
        freq = self.freq.astype(np.int64)
        z = int((freq == 1).sum())
        target = int(2 * self.cfg.threshold_count - z)
        target = max(0, min(target, freq.sum()))
        uniques = np.flatnonzero(freq == 1)
        zeros = np.flatnonzero(freq == 0)
        heavy = np.flatnonzero(freq >= 2)
        if z > self.cfg.threshold_count:
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
        self.freq = self.doctored = freq.astype(np.uint64)

    def table(self, kind, degree_cap):
        return self.doctored if kind == "collisions" else self.freq


def _flip_collisions(freq: np.ndarray, collision_threshold: float) -> np.ndarray:
    """Table with its collision count reflected across the threshold, one
    moved sample at a time: onto the fullest bin to raise the count, from the
    fullest to the emptiest bin to lower it, until the target is crossed or
    no move helps."""
    freq = freq.astype(np.int64)
    count = table_total("collisions", 2, freq)
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

    def claim(self, kind, degree_cap):
        return super().claim(kind, degree_cap) + (kind == "unique")


class RangeClampProver(HonestStreamProver):
    """Hides an over-cap frequency: the main sum-check runs on the true table
    with an internally consistent claim, while the range certificate runs on
    a clamped table so the zero total looks plausible. The verifier's
    maintained extension value exposes the clamped table at the final check."""

    name = "range-clamp"

    def announced_cap(self, degree_cap: int) -> int:
        return degree_cap  # lies about the cap

    def table(self, kind, degree_cap):
        if kind == "range":
            return np.minimum(self.freq, np.uint64(degree_cap))
        return self.freq


ADVERSARIES = {cls.name: cls for cls in (DecisionFlipProver, ShiftClaimProver, RangeClampProver)}


# ---------------------------------------------------------------------------
# Protocol orchestration
# ---------------------------------------------------------------------------


def uniformity_verdict(z_verified: int, threshold_count: float) -> str:
    return "not uniform" if z_verified <= threshold_count else "uniform"


def collision_verdict(c_verified: int, collision_threshold: float) -> str:
    return "not uniform" if c_verified > collision_threshold else "uniform"


class UniformityVerifier(Verifier):
    memory_limit = None  # classical protocol; no quantum copies at all
    channel_kind = "classical"

    def run(self, session, prover):
        p = self.cfg
        self.extras.update(in_regime=p.in_regime, decision_statistic=p.decision_statistic)
        collisions = p.decision_statistic == "collisions"
        state = StreamVerifierState(p.k, session.rng("points"), session.rng("collision-point") if collisions else None)
        samples = session.oracle_v.sample_batch(session.rng("stream"), p.n)
        state.update_batch(samples)
        session.channel.count_raw_bits("v->p", p.n * p.b, note="sample-stream")
        prover.ingest(samples, p.k)
        # what the pass kept does not depend on the cap, so it is announced after the pass
        ceiling = min(p.degree_cap << MAX_WIDENINGS, p.n)
        width = ceiling.bit_length()
        # a cap of 2^width or more is sent as all ones: above the (even) ceiling if that is below n
        message = [int(c) for c in format(min(prover.announced_cap(p.degree_cap), (1 << width) - 1), f"0{width}b")]
        degree_cap = int("".join(map(str, session.channel.send_bits("p->v", message, session.next_round()))), 2)
        if not 1 <= degree_cap <= ceiling:
            raise ProtocolAbort(f"prover announced degree cap {degree_cap}, outside 1..{ceiling}")
        self.extras["final_degree_cap"] = degree_cap
        z_claim = prover.claim("unique", degree_cap)
        session.channel.send_structured("p->v", z_claim, session.next_round())
        counter = {"fe": 1}  # the claim

        def count_msg(message):
            counter["fe"] += len(message)
            session.channel.count_raw_bits("p->v", FIELD_BITS * len(message), note="sumcheck-msg")

        def check(kind, claim, point, a_value, chi=1, zeta=None):
            engine = prover.engine(kind, degree_cap, zeta)
            out = verify_sumcheck(kind, claim, engine, point, degree_cap, a_value, chi, count_msg)
            if not out.verified:
                raise ProtocolAbort(f"{SUMCHECK_NAMES[kind]} rejected: {out.reason}")

        check("unique", z_claim, state.r, state.a_at_r)
        # the certificate asserts a zero total, whatever the prover says
        check("range", 0, state.r2, state.a_at_r2, state.chi_pair(state.r2, state.zeta), state.zeta)
        if collisions:
            c_claim = prover.claim("collisions", degree_cap)
            session.channel.send_structured("p->v", c_claim, session.next_round())
            counter["fe"] += 1
            check("collisions", c_claim, state.r3, state.a_at_r3)
        self.extras["prover_field_elements"] = counter["fe"]
        self.extras["peak_field_elements"] = state.peak_field_elements
        self.extras["z_verified"] = z_claim
        if collisions:
            self.extras["c_verified"] = c_claim
            return collision_verdict(c_claim, p.collision_threshold)
        return uniformity_verdict(z_claim, p.threshold_count)


@dataclass(frozen=True)
class UniformityConfig(Protocol):
    """The uniformity IP's validated parameter set, which its verifier reads,
    with the experiment settings."""

    k: int = 1 << 16
    epsilon: float = 0.75
    degree_cap: int = 32  # D0: the prover may announce a cap up to min(D0 * 2^MAX_WIDENINGS, n)
    distribution: str = "uniform"
    support_fraction: float = 1 / 8
    # waives epsilon >= 12/k^(1/4); such configs carry in_regime = False and,
    # where tau <= 0 makes the unique-count rule constant, decide on the
    # verified collision count instead (see decision_statistic)
    allow_small_epsilon: bool = False
    verifier: ClassVar[type] = UniformityVerifier
    provers: ClassVar[dict] = {"honest": HonestStreamProver, **ADVERSARIES}

    def __post_init__(self):
        if self.k & (self.k - 1) or self.k < 2:
            raise ValueError("k must be a power of two >= 2")
        if not 0 < self.epsilon <= 1:
            raise ValueError("epsilon must be in (0, 1]")
        if not self.allow_small_epsilon and not self.in_regime:
            raise ValueError(f"epsilon must be >= 12/k^(1/4) = {12 / self.k**0.25}")
        if self.degree_cap < 1:
            raise ValueError("degree_cap must be >= 1")
        if self.distribution not in ("uniform", "support_fraction", "point_mass"):
            raise ValueError("distribution must be uniform, support_fraction or point_mass")
        if not 0 < self.support_fraction <= 1:
            raise ValueError("support_fraction must be in (0, 1]")

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

    def formula(self) -> dict:
        out = {"n": self.n, "tau": self.tau, "threshold_count": self.threshold_count, "b": self.b}
        if self.decision_statistic == "collisions":
            # tau <= 0: the collision threshold is the one that decides
            out["collision_threshold"] = self.collision_threshold
        return out

    def make_distribution(self, which: str) -> SupportDistribution:
        supports = {
            "uniform": self.k,
            "support_fraction": max(1, int(self.k * self.support_fraction)),
            "point_mass": 1,
        }
        return SupportDistribution(self.k, choose("distribution", which, supports), which)

    def task(self):
        """Many-vs-one task view: uniform vs far distributions (classical
        channel); feeds the distinguisher transformation."""
        return ManyVsOneTask(
            accept_instance=self.make_distribution("uniform"),
            reject_sampler=lambda rng: self.make_distribution("support_fraction"),
            accept_output="uniform",
        )

    def sample_instance(self, which: str, rng: np.random.Generator):
        if which == "accept":
            return self.make_distribution("uniform")
        if which == "reject":
            return self.make_distribution(self.distribution if self.distribution != "uniform" else "support_fraction")
        return self.make_distribution(self.distribution)

    def judge(self, output, hidden) -> bool:
        """Valid iff the verdict matches the hidden distribution side."""
        if hidden.name == "uniform":
            return output == "uniform"
        return output == "not uniform"
