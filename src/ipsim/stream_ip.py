"""Streaming interactive proof for memory-constrained uniformity testing.

The verifier streams n samples with O(polylog k) persistent state: it keeps
the multilinear extension a(r) = f~(r) of the frequency vector f at one
pre-drawn random point r. After the pass the prover announces a degree cap
D and claims the unique-elements count Z (and, where tau <= 0, the
collision count C). The verifier then reveals a random point zeta, draws a
batching coefficient rho (and rho' for C) and runs one b-round sum-check,
at r, of

    g(x) = U_D(f~(x)) + rho eq(zeta, x) R_D(f~(x)) [+ rho' f~(x)(f~(x) - 1)/2]

against Z [+ rho' C]. U_D, the degree-D interpolant of [y == 1] on 0..D,
counts the frequencies equal to 1 among those within the cap; the range
certificate R_D(y) = prod_(i=0..D) (y - i) vanishes on every frequency
within the cap, and its total is fixed at zero. The final check reads only
a(r), eq(zeta, r) and g's coefficients. Decision: "not uniform" iff the
verified Z is at most n * tau.

Soundness, over q = 2^61 - 1: if a frequency exceeds D, the vector
R_D(f(x)) is nonzero, and its multilinear extension vanishes at the random
zeta with probability at most b/q. A false claim or a nonzero certificate
leaves the batched total unequal to the batched claim for all but one
value of each batching coefficient, 1/q each (Schwartz-Zippel in rho and
rho'). The sum-check of a false total then passes with probability at most
b (D + 2)/q, as g has degree D + 2 in each variable. The paper's appendix
runs the unique count and the range certificate as separate sum-checks,
each at its own point with its own maintained extension; one sum-check of
their random linear combination departs from it (Thaler, "Proofs,
Arguments, and Zero-Knowledge", 2022, the sum-check chapters; Cormode,
Thaler and Yi, "Verifying computations with streaming interactive proofs",
PVLDB 2011) and keeps one point.

The verifier reads the stream once and forwards it to the prover, which
answers from it, never from its own oracle (``prover_hidden`` changes
nothing here). Nothing the pass keeps depends on D, so after it the prover
announces D in ceiling.bit_length() bits; the verifier aborts unless
1 <= D <= ceiling = min(D0 * 2^MAX_WIDENINGS, n), D0 = ``degree_cap``. The
honest D is max f. D is fixed before any challenge: too small a D fails the
range certificate, and a larger one gains nothing, as the verdict does not
depend on D and the soundness error grows with it. Every message is
metered on the channel: the stream, the cap, the claims, zeta and the
batching coefficients, each round's message and the b - 1 challenges the
prover receives (the last one is never sent). ``peak_field_elements``
(2b + 12 registers, 2b + 14 with C and rho') leaves out the sum-check's
Lagrange weight table of D + 3 entries, max f + 3 when honest.

Outside the appendix's regime n can exceed k by so much that tau <= 0, and
then the rule above answers "uniform" for every stream (Z >= 0 > n * tau).
For those configs only, the prover also claims the collision count
C = sum_x f(x)(f(x)-1)/2, which the rho' term verifies (h(y) = y(y-1)/2 is
an exact degree-2 polynomial, so it needs no cap); the verifier then
decides "not uniform" iff C > C(n,2)(1+2 eps^2)/k, halfway between the
uniform mean C(n,2)/k and the floor C(n,2)(1+4 eps^2)/k that every eps-far
source (total variation) meets. This collision rule (Goldreich-Ron
collision tester, with the F_2 sum-check of annotated data streams) goes
beyond the paper's appendix. At k=256, eps=0.9 the default far instance
(support fraction 1/8, total variation 0.875) lies outside the eps-far
promise; its expected collision count 8 C(n,2)/k still clears the
threshold by a factor of three.
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
    """Persistent verifier registers: the b-element point r, at which the
    stream pass maintains the frequency extension a(r), and the b-element
    point zeta of the range certificate, revealed after the claims. With the
    claims, the batching coefficients and the counters they make the fixed
    register count that ``peak_field_elements`` gives: 2b + 12, or 2b + 14
    with the collision count and its coefficient, with O(1) transient
    scratch besides. It does not count the sum-check's (D + 3)-entry
    Lagrange weight table, which ``run_sumcheck`` hands every round's
    ``StreamedNodeEval``. The 2^(b/2)-entry eq tables of ``update_batch``
    only vectorize the simulation."""

    def __init__(self, k: int, rng: np.random.Generator, collisions: bool = False):
        self.k = k
        self.b = k.bit_length() - 1
        self.r = [m61.rand_fe(rng) for _ in range(self.b)]
        self.zeta = [m61.rand_fe(rng) for _ in range(self.b)]
        self.a_at_r = 0
        self.sample_count = 0
        # fixed register accounting: 2b point coordinates, the maintained
        # extension value, the Z claim and the running sum-check claim, rho,
        # 4 streaming-eval scratch slots and 4 parameter/counter slots; the
        # C claim and rho' under the collision rule
        self.register_count = 2 * self.b + 12 + 2 * collisions
        self.peak_field_elements = self.register_count

    def update_batch(self, samples: np.ndarray):
        """Adds chi_x(r) to a(r) for every sample x, in chunks of m61.CHUNK
        samples (the same value as one update per sample):
        chi_x(r) = low[x mod 2^h] high[x >> h], h = b // 2, from the eq
        tables of r's two halves."""
        samples = np.asarray(samples)
        if samples.size == 0:
            return
        if int(samples.min()) < 0 or int(samples.max()) >= self.k:
            raise ValueError("sample index out of range")
        h = self.b // 2
        low = chi_table_for_point(1 << h, self.r[:h])
        high = chi_table_for_point(1 << (self.b - h), self.r[h:])
        total = self.a_at_r
        for lo in range(0, samples.size, m61.CHUNK):
            chunk = samples[lo : lo + m61.CHUNK].astype(np.intp)
            chi = low.take(chunk & ((1 << h) - 1))
            vmul(chi, high.take(chunk >> h), out=chi)
            total = fadd(total, m61.vsum(chi))
        self.a_at_r = total
        self.sample_count += samples.size

    def chi_pair(self, point: list[int], other: list[int]) -> int:
        """chi(point, other) = prod_j ((1-p_j)(1-o_j) + p_j o_j)."""
        acc = 1
        for pj, oj in zip(point, other):
            term = fadd(fmul(pj, oj), fmul(fsub(1, pj), fsub(1, oj)))
            acc = fmul(acc, term)
        return acc


# ---------------------------------------------------------------------------
# The sum-check polynomial and its honest prover engine
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _weights_cached(num_nodes: int) -> tuple[int, ...]:
    return tuple(m61.lagrange_weights(num_nodes))


def _from_roots(roots, constant: int) -> tuple[int, ...]:
    """Monomial coefficients, lowest degree first, of constant * prod_i (y - i)."""
    coeffs = [constant]
    for i in roots:  # times (y - i): c_j becomes c_(j-1) - i c_j
        coeffs = [(below - i * same) % Q for below, same in zip([0, *coeffs], [*coeffs, 0])]
    return tuple(coeffs)


@lru_cache(maxsize=256)
def unique_polynomial(degree_cap: int) -> tuple[int, ...]:
    """U_D, the degree-D interpolant of [y == 1] on the nodes 0..D, as
    monomial coefficients: within the cap it counts the entries equal to 1."""
    roots = [i for i in range(degree_cap + 1) if i != 1]
    return _from_roots(roots, m61.finv(math.prod(1 - i for i in roots) % Q))


@lru_cache(maxsize=256)
def range_polynomial(degree_cap: int) -> tuple[int, ...]:
    """R_D(y) = prod_(i=0..D) (y - i), zero on every entry within the cap."""
    return _from_roots(range(degree_cap + 1), 1)


COLLISION_POLYNOMIAL = (0, Q - m61.finv(2), m61.finv(2))  # y(y - 1)/2, the pairs among y equal samples


def poly_value(coefficients, y: int) -> int:
    """The polynomial of monomial ``coefficients``, lowest degree first, at an integer y in GF(Q)."""
    acc = 0
    for c in reversed(coefficients):
        acc = acc * y + c
    return acc % Q


class BatchedPolynomial:
    """The one sum-check's polynomial, of y = f~(x) and e = eq(zeta, x):
    counted(y) + e weighted(y), with counted = U_D + rho' y(y-1)/2 and
    weighted = rho R_D, both of degree at most D + 1. It has degree D + 2 in
    each variable, so a round message has D + 3 node values."""

    def __init__(self, degree_cap: int, rho: int, rho_collisions: int = 0):
        self.degree_cap, self.rho, self.rho_collisions = degree_cap, rho, rho_collisions
        self.num_nodes = degree_cap + 3
        self._factors = [-i for i in range(degree_cap + 1) if i != 1]
        self._unique = unique_polynomial(degree_cap)[-1]  # U_D = _unique prod_(i = 0, 2..D) (y - i)
        self._half_rho = fmul(rho_collisions, m61.finv(2))

    def parts(self, y: int) -> tuple[int, int]:
        """(counted(y), weighted(y)) for an integer y, as integers congruent to
        them mod Q, from the one product prod_(i = 0, 2..D) (y - i) that U_D
        and R_D share."""
        shared = math.prod([y + i for i in self._factors])
        return self._unique * shared + self._half_rho * y * (y - 1), self.rho * (y - 1) * shared

    def value(self, y: int, eq: int) -> int:
        """counted(y) + eq weighted(y): g at a point whose extension value is
        y and whose eq(zeta, .) is eq."""
        counted, weighted = self.parts(y)
        return (counted + eq * weighted) % Q

    def triangles(self) -> np.ndarray:
        """The (2n, n) coefficient-binomial triangles (``_unit_triangles``)
        of the counted polynomial, then of the weighted one; n = D + 2."""
        unique, collisions, vanishing = _unit_triangles(self.degree_cap)
        n = len(unique)
        out = np.empty((2 * n, n), dtype=np.uint64)
        vmul(collisions, self.rho_collisions, out=out[:n])
        vadd(out[:n], unique, out=out[:n])
        vmul(vanishing, self.rho, out=out[n:])
        return out


# one entry per cap (criterion 2's 800 k = 256 sessions announce 73)
@lru_cache(maxsize=128)
def _unit_triangles(degree_cap: int) -> np.ndarray:
    """(3, n, n), n = D + 2: the triangles of U_D, y(y-1)/2 and R_D.

    With a polynomial's monomial coefficients g_j (j < n), its triangle is
    T[a, p] = g_(a+p) C(a+p, a), zero where a + p >= n, so that
    g(u + t d) = sum_a t^a d^a sum_p T[a, p] u^p.
    """
    n = degree_cap + 2
    coeffs = np.zeros((3, n), dtype=np.uint64)  # lowest degree first
    for row, poly in zip(coeffs, (unique_polynomial(degree_cap), COLLISION_POLYNOMIAL, range_polynomial(degree_cap))):
        row[: len(poly)] = poly
    # g_(a+p) C(a+p, a) = g_(a+p) (a+p)! / (a! p!): the Hankel matrix of
    # g_m m!, zero for m >= n, scaled by 1/a! down and 1/p! along
    fact, inv_fact = (np.array(x, dtype=np.uint64) for x in m61.factorials(n))
    hankel = np.zeros((3, 2 * n - 1), dtype=np.uint64)
    vmul(coeffs, fact, out=hankel[:, :n])
    triangles = vmul(hankel[:, np.add.outer(np.arange(n), np.arange(n))], inv_fact)
    return vmul(triangles, inv_fact[:, None], out=triangles)


@lru_cache(maxsize=128)
def _vandermonde(num_nodes: int) -> np.ndarray:
    """t^a for the message nodes t = 0..num_nodes-1 (rows) and a = 0..num_nodes-1."""
    powers = np.empty((num_nodes, num_nodes), dtype=np.uint64)
    powers[1] = np.arange(num_nodes)
    return np.ascontiguousarray(_powers(powers).T)


class DistinctTable(NamedTuple):
    """A table as its sorted distinct entries and, per entry, the index of
    its value among them: table = values[ids]."""

    values: np.ndarray
    ids: np.ndarray

    @classmethod
    def of(cls, table: np.ndarray) -> DistinctTable:
        # a frequency table's entries are small, so ``_rank`` counts them into
        # int32 ids, half the size of _runs' int64 ids, which the engine holds
        # for its first round
        return cls(*_rank(np.ascontiguousarray(table, dtype=np.uint64)))

    def totals(self, *polynomials) -> list[int]:
        """sum_x P(table[x]) in GF(Q) for each polynomial P (monomial
        coefficients): over the distinct values y, count(y) P(y)."""
        counts = np.bincount(self.ids, minlength=self.values.size).tolist()
        values = self.values.tolist()
        return [sum(c * poly_value(p, y) for y, c in zip(values, counts)) % Q for p in polynomials]


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
# as many distinct d and distinct u as the block has pairs; k = 2^16
# sum-checks ran slower with 2^15 (one BLAS thread, 2-vCPU Xeon)
_LADDER_ELEMS = 1 << 16

# the largest scratch an engine holds (2.36 MB), the most the per-kind engines
# it replaced held: more live data in a warm k = 2^16 session lets its heap
# outgrow glibc's trim threshold and re-fault about 1100 pages a session
_SCRATCH_ELEMS = 9 << 15


def _block_pairs(n: int) -> int:
    """Pairs per block of n powers: at most ``_LADDER_ELEMS`` / 2n, and few
    enough that the block's ladder and two moment sets (2 n m elements each
    at most) and its segment-sum halves or GEMM limbs (2 n m, or
    9 n min(m, GEMM_BLOCK) for the wide GEMM) fit ``_SCRATCH_ELEMS``."""
    return max(1, min(_LADDER_ELEMS // (2 * n), _SCRATCH_ELEMS // (13 * n)))


# pairs x nodes^2 of a round at or under which its message and its bind are
# computed in Python ints, where a numpy call's fixed cost outweighs its
# arithmetic (timeit: at D = 8, 4 pairs took 104 us in Python ints against
# 163 us in numpy, 8 pairs 193 against 177; the crossover is near 20 pairs at
# D = 2 and 2 at D = 20): at most 5 pairs at D = 8 and none at D >= 25
_TAIL_WORK = 700

# message nodes at or under which node values are summed in Python ints
# (timeit: 11 us at 10 nodes against numpy's 42 us, 36 us at 17 against 35,
# 126 us at 35 against 44)
_INT_NODES = 17


class _SumcheckEngine:
    """Honest table-folding prover of the one batched sum-check.

    For a ``BatchedPolynomial`` with counted polynomial P and weighted
    polynomial R, the engine sums P(a(x)) + chi(x, zeta) R(a(x)) over the
    cube, a being the table and chi(x, zeta) = prod_j eq(x_j, zeta_j).
    Messages are the round polynomial on the integer nodes 0..D+2. chi stays
    factored: round j weights column x by the eq suffix chi(x, zeta_(j+1..))
    and multiplies the R sum by the line prod_(i<j) eq(r_i, zeta_i)
    eq(t, zeta_j). The suffix table is built once; each bind sums its entry
    pairs, which drops its lowest coordinate since eq(0, z) + eq(1, z) = 1.

    The table is kept as ``values[ids]``, the prover's ``DistinctTable``: a
    few distinct values and one id per entry. Each round ranks its column
    pairs (ids[2x], ids[2x+1]) by one int64 key, u-id first, as
    ``DistinctTable.of`` ranks a table: by counting when every key is below
    the number of columns, which the first rounds of a frequency table meet
    (values.size^2 <= columns), and by sorting otherwise. Each distinct pair (u, d = v - u), in key order,
    carries two weights: its count c and the sum w of its columns' eq
    suffix entries (``m61.grouped_sums``). ``bind(r)`` folds only the
    distinct pairs, u + r d, and the pair indices become the next ids. A
    frequency table has few distinct pairs in its early rounds, and far
    fewer distinct u than pairs after that.

    Once a round finds as many distinct pairs as columns, the engine is
    ``dense`` for the rest of the sum-check: it keeps the table itself, in
    column order (``ids`` = 0, 1, ...), takes each column pair as its own
    pair, of count 1 and weighted by its eq suffix entry, and folds the
    table as it is, with no ranking. Folding at a random r keeps distinct
    pairs distinct except with probability about pairs^2 / Q, and every
    round is exact either way.

    A round message comes from power moments. With y = u + t d on each
    pair, sum c P(u + t d) = sum_a t^a sum_p T[a, p] M[a, p], where
    M[a, p] = sum c d^a u^p are the counted moments and T[a, p] =
    P_(a+p) C(a+p, a) is P's coefficient-binomial triangle; the eq-weighted
    moments, sum w d^a u^p, contract with R's triangle in the same way
    (``BatchedPolynomial.triangles``, n = D + 2 powers each). The pairs are
    taken in blocks of ``_block_pairs(n)``. One power ladder holds the
    powers of a block's d and of the u of its runs; the counted powers of
    d, then the eq-weighted ones, are summed over each run of equal u into
    S[a, s] = sum c d^a and sum w d^a, stacked into one 2n x s array, so
    that M = S U^T with U[p, s] = u_s^p built once per run. A run cut by
    the block's end carries its partial sums into the next block. In a
    dense round every pair is a run of its own, and S is its d-powers and
    their eq-weighted copy, with nothing to sum. A block with at least n
    runs forms both moment sets with one exact limb-split float64 GEMM
    (``m61.matmul``) and contracts them with the stacked triangles. A
    narrower block, which the last rounds of every sum-check and every
    small table have, contracts the powers first, h_a = sum_p T[a, p] u^p,
    so that its GEMM output is 2n x s rather than 2n x n, from the
    triangles' limbs, split once per engine. The Vandermonde matrix of the
    nodes turns the coefficients in t, the R part times the line, into node
    values, in Python ints up to ``_INT_NODES`` nodes. A round whose
    pairs x nodes^2 is at most ``_TAIL_WORK`` instead evaluates
    c P(u + t d) + line(t) w R(u + t d) of every pair at every node in
    Python ints, and binds in them too. Every step is exact arithmetic in
    GF(Q), so the messages equal those of evaluating g at every node.

    The engine keeps one scratch buffer for as long as it lives, grown to
    its largest block and at most ``_SCRATCH_ELEMS`` elements. Each block
    writes its power ladder, moments, segment-sum scratch and the GEMM's
    float64 limbs into it, so that a round touches no fresh pages; its
    ``vmul`` temporaries are new arrays.

    Each fork stays because removing it measured slower on the per-kind
    engines this one replaced (median ``process_time``, one BLAS thread,
    2-vCPU Xeon; "sessions" are whole uniformity sessions, interleaved with
    the full engine's in one process, at k = 2^16, eps = 0.75; k = 4096,
    eps = 1; and k = 256, eps = 0.9):
    - the wide GEMM branch: narrow-only sum-checks took x1.84 at k = 2^16
      and x1.30 at k = 4096;
    - the narrow GEMM branch: wide-only took x2.48 at k = 256, D = 128;
    - dense rounds: ranked to the end, sessions took x1.17 at k = 2^16,
      x1.15 at k = 4096 and x1.14 at k = 256 (uniform);
    - counting ranks (``_rank``): sorting the pairs of a round took x1.07
      at k = 2^16, whose rounds 0 and 1 count, and sorting a table takes
      1.19 ms against 0.19 ms at k = 2^16;
    - the Python-int tail: numpy down to the last round took x1.03 at
      k = 2^16, x1.10 at k = 4096 and x1.07 at k = 256;
    - node values in Python ints up to ``_INT_NODES`` nodes: the numpy
      Vandermonde product took x1.02 at k = 2^16 and x1.05 at k = 4096;
    - the scratch and the ``out``/``work``/``limbs`` buffers of
      ``_segment_sums_mod`` and ``m61.matmul``: without them a warm k = 2^16
      session went from 0 to 3434 minor faults and about 8% more CPU;
    - the verifier's Lagrange weight table (``_weights_cached``): a streamed
      evaluation without it took 126 us per 35-node round, against 90 us.
    """

    def __init__(self, ranked: DistinctTable, polynomial: BatchedPolynomial, zeta: list[int]):
        self.values, self.ids = ranked
        self.polynomial = polynomial
        self.zeta = list(zeta)  # the coordinates not yet bound
        self.prefix = 1  # prod of eq(r_i, zeta_i) over the bound rounds
        # the eq suffix chi(x, zeta_(j+1..)) of every column x of the current round j
        self.suffix = chi_table_for_point(self.ids.size // 2, self.zeta[1:])
        self.triangle = polynomial.triangles()
        self.triangle_limbs = m61.split(self.triangle)
        self.n = len(self.triangle) // 2  # powers 0..n-1 of each polynomial
        self.num_nodes = polynomial.num_nodes
        self.vandermonde = _vandermonde(self.num_nodes)
        self.pair_work = self.num_nodes**2  # one pair's share of a round's work (``_TAIL_WORK``)
        self.node_rows = self.vandermonde.tolist() if self.num_nodes <= _INT_NODES else None
        self.block = _block_pairs(self.n)
        self.dense = False  # every column pair distinct, from this round on
        self._index = None  # 0, 1, ...: the ids of a dense table
        self._scratch = np.empty(0, dtype=np.uint64)  # grown by _evaluate and kept until the engine goes
        self._pair_up()

    def _pair_up(self):
        """This round's distinct column pairs (``pairs``, rows of (u-id, v-id)
        in key order, or the columns themselves once dense), their counts
        (None when every count is 1) and eq weights, and the pair index of
        every column."""
        columns = self.ids.reshape(-1, 2)
        size = columns.shape[0]
        if self.dense:
            if self._index is None:  # the first dense pairing puts the table in column order
                self.values = self.values[self.ids]
                self.ids = self._index = np.arange(self.values.size)
            self.pairs = self.ids.reshape(-1, 2)
            self.pair_of_column = self._index[:size]
            self.counts, self.weight = None, self.suffix
            return
        keys = np.multiply(columns[:, 0], self.values.size, dtype=np.int64)
        keys += columns[:, 1]
        distinct, self.pair_of_column = _rank(keys)
        self.pairs = np.stack(np.divmod(distinct, self.values.size), axis=1)
        counts = np.bincount(self.pair_of_column, minlength=distinct.size)
        self.counts = None if counts.max() == 1 else counts.astype(np.uint64)
        self.weight = m61.grouped_sums(self.pair_of_column, self.suffix, distinct.size)
        self.dense = distinct.size == size

    def _line(self) -> tuple[int, int]:
        """(alpha, beta) with prefix * eq(t, zeta_j) = alpha + beta t."""
        z = self.zeta[0]
        return fmul(self.prefix, fsub(1, z)), fmul(self.prefix, fsub(fadd(z, z), 1))

    def round_message(self) -> tuple[int, ...]:
        u = self.values[self.pairs[:, 0]]
        d = vsub(self.values[self.pairs[:, 1]], u)
        return tuple(self._evaluate(u, d, self.counts, self.weight, self._line()))

    def _evaluate(self, u, d, counts, weight, line) -> list[int]:
        """Node values of sum_i c_i P(u_i + t d_i) + (alpha + beta t) w_i R(u_i + t d_i)
        over the pairs i, with counts c (None: every count is 1), eq weights w
        and line (alpha, beta); unless the engine is dense, pairs with equal u
        next to each other share one run."""
        if u.size * self.pair_work <= _TAIL_WORK:
            counts = [1] * u.size if counts is None else counts.tolist()
            return self._int_message(u.tolist(), d.tolist(), counts, weight.tolist(), line)
        n, block = self.n, self.block
        span = n * min(block, u.size)
        if self._scratch.size < 13 * span:
            del self._scratch  # freed before the larger one is made, which keeps the peak down
            self._scratch = np.empty(13 * span, dtype=np.uint64)
        # the ladder's elements, then the moments', then the segment sums' scratch and the GEMM's limbs
        ladder, moment_space, shared = np.split(self._scratch[: 13 * span], [2 * span, 4 * span])
        limbs = shared.view(np.float64)
        # [a] and [n + a]: the counted and the eq-weighted coefficients of t^a, summed in Python ints
        sums = [0] * (2 * n)
        carry = None  # both moment sets of a run of u cut by the previous block's end
        for lo in range(0, u.size, block):
            hi = min(lo + block, u.size)
            m = hi - lo
            if self.dense:  # every pair is a run of its own
                runs = whole = m
            else:
                runs = np.flatnonzero(np.concatenate(([True], u[lo + 1 : hi] != u[lo : hi - 1])))  # runs of equal u
                whole = runs.size - (hi < u.size and u[hi] == u[hi - 1])  # the last run may go on
            s = m if self.dense else runs.size
            # the ladder holds the powers of every pair's d, then of each run's u;
            # "clip" (the indices are in range) writes straight to out, "raise" would buffer
            powers = ladder[: n * (m + s)].reshape(n, -1)
            powers[1, :m] = d[lo:hi]
            if self.dense:
                powers[1, m:] = u[lo:hi]
            else:
                u[lo:hi].take(runs, out=powers[1, m:], mode="clip")
            d_powers, u_powers = _powers(powers)[:, :m], powers[:, m:]
            moments = moment_space[: 2 * n * s].reshape(2 * n, s)
            if self.dense:
                if counts is None:
                    moments[:n] = d_powers
                else:
                    vmul(d_powers, counts[lo:hi], out=moments[:n])
                vmul(d_powers, weight[lo:hi], out=moments[n:])
            else:
                block_counts = None if counts is None else counts[lo:hi]
                _segment_sums_mod(d_powers, runs, block_counts, out=moments[:n], work=shared)
                vmul(d_powers, weight[lo:hi], out=d_powers)
                _segment_sums_mod(d_powers, runs, out=moments[n:], work=shared)
                if carry is not None:
                    vadd(moments[:, 0], carry, out=moments[:, 0])
                carry = moments[:, whole].copy() if whole < s else None
                moments, u_powers = moments[:, :whole], u_powers[:, :whole]
            width = min(u_powers.shape[1], m61.GEMM_BLOCK)
            if u_powers.shape[1] >= n:
                # M[a, p] = sum c d^a u^p over n rows, then sum w d^a u^p: one 2n x n GEMM output
                pair = limbs[: 6 * n * width], limbs[6 * n * width : 9 * n * width]
                terms = vmul(m61.matmul(moments, u_powers.T, limbs=pair), self.triangle)
            else:
                # S[a, s] h_a(u_s), a 2n x s GEMM output
                terms = vmul(moments, m61.matmul(self.triangle_limbs, u_powers, limbs=(limbs, limbs)))
            sums = [total + part for total, part in zip(sums, m61.vsum_rows(terms))]
        alpha, beta = line
        counted, weighted = sums[:n] + [0], sums[n:]  # room for the line's power n
        # times alpha + beta t: beta shifts the weighted coefficients one power up
        coeffs = [(c + alpha * w + beta * below) % Q for c, w, below in zip(counted, [*weighted, 0], [0, *weighted])]
        if self.node_rows is not None:
            return [sum(map(operator.mul, row, coeffs)) % Q for row in self.node_rows]
        return m61.vsum_rows(vmul(self.vandermonde, np.array(coeffs, dtype=np.uint64)))

    def _int_message(self, u: list[int], d: list[int], counts: list[int], weight: list[int], line) -> list[int]:
        """``_evaluate`` in Python ints: c P(y) + (alpha + beta t) w R(y) of
        every pair at y = u + t d, for every node t."""
        out = []
        for t in range(self.num_nodes):
            total = total_weighted = 0
            for y, c, w in zip(u, counts, weight):
                counted, weighted = self.polynomial.parts(y)
                total += c * counted
                total_weighted += w * weighted
            out.append((total + (line[0] + line[1] * t) * total_weighted) % Q)
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
    """chi_x(point) for every cube index x < k = 2^b, bit j of x against
    point[j], built in one array: with the table of the coordinates below j
    in its first s = 2^j entries, t p_j goes to entry x + s and
    t - t p_j = t (1 - p_j) stays at x."""
    table = np.empty(k, dtype=np.uint64)
    table[0] = 1
    s = 1
    for j in range(k.bit_length() - 1):
        vmul(table[:s], point[j], out=table[s : 2 * s])
        vsub(table[:s], table[s : 2 * s], out=table[:s])
        s *= 2
    return table


# ---------------------------------------------------------------------------
# Sum-check verification (streamed messages, pre-drawn randomness)
# ---------------------------------------------------------------------------


@dataclass
class SumcheckOutcome:
    verified: bool
    rounds: int
    reason: str = ""


def run_sumcheck(claim: int, prover_rounds, rs: list[int], num_nodes: int, final_eval, session=None) -> SumcheckOutcome:
    """Generic sum-check verifier loop.

    ``prover_rounds(j, r_prev)`` returns round j's node evaluations (the
    prover binds r_prev first); messages are streamed through constant-memory
    node evaluation; ``final_eval()`` must equal the surviving claim. With a
    ``session``, round j opens a channel round that meters the challenge
    r_(j-1) the prover receives (none before round 0, and the last
    challenge is never sent) and the prover's message.
    """
    weights = _weights_cached(num_nodes)
    current = claim % Q
    r_prev = None
    for j, r in enumerate(rs):
        if session is not None:
            session.next_round()
            if r_prev is not None:
                session.channel.count_raw_bits("v->p", FIELD_BITS, note="sumcheck-challenge")
        message = prover_rounds(j, r_prev)
        if session is not None:
            session.channel.count_raw_bits("p->v", FIELD_BITS * len(message), note="sumcheck-msg")
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


# ---------------------------------------------------------------------------
# Prover strategies
# ---------------------------------------------------------------------------


class HonestStreamProver(ProverStrategy):
    """Stores the stream's frequency table and answers from one table,
    ``table(degree_cap)``: it announces the table's largest entry as the
    cap, its claims are the table's unique and collision totals, and its
    engine folds the same table, ranked once for both. So a lying prover
    overrides ``table`` or ``claims`` only."""

    name = "honest-stream"

    def ingest(self, samples: np.ndarray, k: int):
        self.freq = np.bincount(np.asarray(samples, dtype=np.int64), minlength=k).astype(np.uint64)
        self._ranked = None  # (cap, the table at that cap ranked), once ranked

    def ranked(self, degree_cap: int) -> DistinctTable:
        """``table(degree_cap)`` as a DistinctTable, ranked once per stream
        and cap, which the claims and the engine share."""
        if self._ranked is None or self._ranked[0] != degree_cap:
            self._ranked = (degree_cap, DistinctTable.of(self.table(degree_cap)))
        return self._ranked[1]

    def table(self, degree_cap: int) -> np.ndarray:
        """The table the sum-check runs on, at the announced cap."""
        return self.freq

    def announced_cap(self, degree_cap: int) -> int:
        """The cap D to announce after the pass, given the config's cap: the
        table's largest entry, the tightest cap whose range certificate passes."""
        return int(self.table(degree_cap).max(initial=0))

    def claims(self, degree_cap: int) -> tuple[int, int]:
        """(Z, C): the totals of U_D and of y(y-1)/2 over the table. Within
        the cap, Z counts the entries equal to 1."""
        return tuple(self.ranked(degree_cap).totals(unique_polynomial(degree_cap), COLLISION_POLYNOMIAL))

    def engine(self, degree_cap: int, zeta: list[int], rho: int, rho_collisions: int = 0) -> _SumcheckEngine:
        """The engine of the batched sum-check, after the verifier revealed
        zeta and the batching coefficients."""
        return _SumcheckEngine(self.ranked(degree_cap), BatchedPolynomial(degree_cap, rho, rho_collisions), zeta)


class DecisionFlipProver(HonestStreamProver):
    """Biases the claimed deciding count across its threshold by running the
    honest machinery on a doctored frequency table; the final check against
    the verifier's a(r) catches it with overwhelming probability.

    Where the unique count decides, the doctored table's unique count is
    pushed across ``threshold_count``; where tau <= 0 and the collision
    count decides, its collision count is pushed across
    ``collision_threshold``. The cap, the claims and every message come
    from the doctored table, so each is consistent with the others."""

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
        self.doctored = freq.astype(np.uint64)

    def table(self, degree_cap):
        return self.doctored


def _flip_collisions(freq: np.ndarray, collision_threshold: float) -> np.ndarray:
    """Table with its collision count reflected across the threshold, one
    moved sample at a time: onto the fullest bin to raise the count, from the
    fullest to the emptiest bin to lower it, until the target is crossed or
    no move helps."""
    freq = freq.astype(np.int64)
    count = int((freq * (freq - 1) // 2).sum())
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

    def claims(self, degree_cap):
        z, c = super().claims(degree_cap)
        return z + 1, c


class RangeClampProver(HonestStreamProver):
    """Hides an over-cap frequency: it runs the honest machinery on the
    table clamped at the cap, so its announced cap (the config's), its
    claims and its messages all agree with a table whose range certificate
    is zero. The clamped table's extension is not the verifier's a(r), which
    exposes it at the final check."""

    name = "range-clamp"

    def table(self, degree_cap):
        return np.minimum(self.freq, np.uint64(degree_cap))


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
        channel = session.channel
        self.extras.update(in_regime=p.in_regime, decision_statistic=p.decision_statistic)
        collisions = p.decision_statistic == "collisions"
        state = StreamVerifierState(p.k, session.rng("points"), collisions)
        samples = session.oracle_v.sample_batch(session.rng("stream"), p.n)
        state.update_batch(samples)
        channel.count_raw_bits("v->p", p.n * p.b, note="sample-stream")
        prover.ingest(samples, p.k)
        # what the pass kept does not depend on the cap, so it is announced after the pass
        ceiling = min(p.degree_cap << MAX_WIDENINGS, p.n)
        width = ceiling.bit_length()
        # a cap of 2^width or more is sent as all ones: above the (even) ceiling if that is below n
        message = [int(c) for c in format(min(prover.announced_cap(p.degree_cap), (1 << width) - 1), f"0{width}b")]
        degree_cap = int("".join(map(str, channel.send_bits("p->v", message, session.next_round()))), 2)
        if not 1 <= degree_cap <= ceiling:
            raise ProtocolAbort(f"prover announced degree cap {degree_cap}, outside 1..{ceiling}")
        self.extras["final_degree_cap"] = degree_cap
        z_claim, c_claim = prover.claims(degree_cap)
        channel.send_structured("p->v", z_claim, session.next_round())
        if collisions:
            channel.send_structured("p->v", c_claim, channel.round)
        # zeta and the batching coefficients are revealed after the claims they weigh
        batching = session.rng("batching")
        rho = m61.rand_fe(batching)
        rho_collisions = m61.rand_fe(batching) if collisions else 0
        session.next_round()
        channel.count_raw_bits("v->p", FIELD_BITS * p.b, note="zeta")
        channel.count_raw_bits("v->p", FIELD_BITS * (1 + collisions), note="batching-coefficients")
        polynomial = BatchedPolynomial(degree_cap, rho, rho_collisions)
        out = run_sumcheck(
            fadd(z_claim % Q, fmul(rho_collisions, c_claim % Q)),
            engine_rounds(prover.engine(degree_cap, state.zeta, rho, rho_collisions)),
            state.r,
            polynomial.num_nodes,
            lambda: polynomial.value(state.a_at_r, state.chi_pair(state.r, state.zeta)),
            session=session,
        )
        if not out.verified:
            raise ProtocolAbort(f"batched sum-check rejected: {out.reason}")
        self.extras["prover_field_elements"] = 1 + collisions + p.b * polynomial.num_nodes
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
