"""Mersenne-61 prime field arithmetic, scalar and numpy-vectorized.

Scalar ops use plain Python ints. The vectorized ops work on uint64 arrays
with 31/30-bit limb splitting so that no intermediate exceeds 64 bits; they
are cross-checked against the scalar reference in the test suite. q = 2^61-1.

Vector contract: array inputs hold canonical elements (< q) and every output
is canonical. ``vadd``, ``vsub`` and ``vmul`` take ``b`` as an array of the
same shape as ``a``, an array that broadcasts to it, or a scalar, and an
optional ``out`` array of ``a``'s shape; ``out`` may be ``a`` or a
same-shape ``b`` itself (the result overwrites it, every element read before
it is written). Without ``out`` a new array is returned. ``vmul`` works
through long 1-D arrays in chunks of ``CHUNK`` elements so that the buffers
of one pass stay in cache; an array of more than one dimension is one pass,
with new limb temporaries.

``matmul(a, b)`` is the matrix product a @ b mod q through float64 GEMMs,
exact by this bound: each operand is split into three limbs of 21, 21 and
19 bits, held as float64, so a product of two limbs is below (2^21 - 1)^2 <
2^42. One GEMM contracts at most ``GEMM_BLOCK`` = 2^11 terms, and every
partial sum it forms, in whatever blocking, order or thread count the BLAS
library picks, is a sum of at most 2^11 such nonnegative integer products:
at most 2^11 (2^21 - 1)^2 < 2^53, which float64 holds exactly. Limb pair
(i, j) then carries the weight 2^(21(i+j)), which mod q is a 61-bit
rotation (2^61 = 1), and the nine limb-pair sums fold into one canonical
element. The limbs are written to a pair of float64 buffers, which a caller
that multiplies many times may own and pass in as ``limbs``, so that its
calls reuse the same pages (the limb arrays are the largest arrays a call
makes); the result is always a new array that shares no memory with them.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence

import numpy as np

Q = (1 << 61) - 1

# field elements are canonical Python ints in [0, Q)
_MASK31 = np.uint64((1 << 31) - 1)
_MASK30 = np.uint64((1 << 30) - 1)
_QV = np.uint64(Q)
_S31 = np.uint64(31)
_S30 = np.uint64(30)
_S61 = np.uint64(61)
_S32 = np.uint64(32)
_MASK32 = np.uint64((1 << 32) - 1)
_ONE = np.uint64(1)


def fadd(a: int, b: int) -> int:
    s = a + b
    return s - Q if s >= Q else s


def fsub(a: int, b: int) -> int:
    s = a - b
    return s + Q if s < 0 else s


def fmul(a: int, b: int) -> int:
    p = a * b
    p = (p >> 61) + (p & Q)
    if p >= Q:
        p -= Q
    return p


def finv(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("no inverse of 0 in GF(2^61-1)")
    return pow(a, Q - 2, Q)


def rand_fe(rng: np.random.Generator) -> int:
    """Uniform field element (rejection over 61 random bits)."""
    while True:
        v = int(rng.integers(0, 1 << 62)) & Q
        if v < Q:
            return v


def vadd(a: np.ndarray, b, out: np.ndarray | None = None) -> np.ndarray:
    """(a + b) mod Q elementwise."""
    s = np.add(a, b, out=out)  # < 2q < 2^63
    # s - q wraps above s exactly when s < q, so the minimum is s mod q
    return np.minimum(s, s - _QV, out=s)


def vsub(a: np.ndarray, b, out: np.ndarray | None = None) -> np.ndarray:
    """(a - b) mod Q elementwise."""
    s = np.subtract(a, b, out=out)  # wraps to 2^64 + a - b when a < b
    # s + q wraps to a - b + q below s exactly when a < b
    return np.minimum(s, s + _QV, out=s)


# elements per vmul pass; vmul and its callers' blocks stay at or below it so
# that the buffers of one pass stay in cache (on a 2-vCPU Xeon with 2 MiB L2
# per core a pass over 8960 elements took 7 ns per element, over 17920 or
# more 14-18 ns)
CHUNK = 1 << 13


def vmul(a: np.ndarray, b, out: np.ndarray | None = None) -> np.ndarray:
    """(a * b) mod Q elementwise; inputs must be canonical (< Q)."""
    if out is None:
        out = np.empty(a.shape, dtype=np.uint64)
    if a.ndim != 1 or a.size <= CHUNK:
        _vmul_block(a, b, out)
        return out
    full_b = isinstance(b, np.ndarray) and b.shape == a.shape
    for lo in range(0, a.size, CHUNK):
        hi = lo + CHUNK
        _vmul_block(a[lo:hi], b[lo:hi] if full_b else b, out[lo:hi])
    return out


def _vmul_block(a: np.ndarray, b, out: np.ndarray):
    a_hi = a >> _S31
    a_lo = a & _MASK31
    # a and b are fully read into limbs before ``out`` (possibly a or b) is written
    if isinstance(b, np.ndarray) and b.shape == a.shape:
        b_hi = b >> _S31
        b_lo = b & _MASK31
        t = np.multiply(a_hi, b_hi, out=out)  # hh < 2^60; hh * 2^62 = 2*hh mod Q
        mm = np.multiply(a_hi, b_lo, out=a_hi)
        mm += np.multiply(a_lo, b_hi, out=b_hi)  # < 2^62; contributes mm * 2^31
        ll = np.multiply(a_lo, b_lo, out=b_lo)  # < 2^62
    else:
        # a scalar or a smaller array broadcast over a: its limbs stay small
        if isinstance(b, np.ndarray):
            b_hi, b_lo = b >> _S31, b & _MASK31
        else:
            b = int(b)
            b_hi, b_lo = np.uint64(b >> 31), np.uint64(b & ((1 << 31) - 1))
        t = np.multiply(a_hi, b_hi, out=out)
        ll = a_lo * b_lo
        mm = np.multiply(a_hi, b_lo, out=a_hi)
        mm += np.multiply(a_lo, b_hi, out=a_lo)
    scratch = a_lo
    t <<= _ONE
    t += ll
    t += np.right_shift(mm, _S30, out=scratch)
    mm &= _MASK30
    mm <<= _S31
    t += mm  # < 2^63 + 2^32
    np.right_shift(t, _S61, out=scratch)
    t &= _QV
    t += scratch  # 2^61 = 1 folded once: < Q + 5
    np.subtract(t, _QV, out=scratch)  # wraps above t exactly when t < Q
    np.minimum(t, scratch, out=t)


# terms per float64 GEMM dot product in matmul: GEMM_BLOCK * (2^21 - 1)^2 < 2^53
GEMM_BLOCK = 1 << 11
_LIMB_MASKS = np.array([(1 << 21) - 1, ((1 << 21) - 1) << 21, ((1 << 19) - 1) << 42], dtype=np.uint64)
_LIMB_SCALES = np.array([1.0, 2.0**-21, 2.0**-42])
_S2 = np.uint64(2)
_S21 = np.uint64(21)
_S42 = np.uint64(42)


def matmul(a: np.ndarray, b: np.ndarray, limbs: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """(a @ b) mod Q for canonical a of shape (P, K) and b of shape (K, R);
    exact (see the module docstring), one float64 GEMM per GEMM_BLOCK of K.
    A constant ``a`` may be passed as its ``split(a)`` limbs, which are then
    not split again.

    ``limbs``, if given, is a pair of 1-D float64 buffers of at least
    3 P min(K, GEMM_BLOCK) and 3 R min(K, GEMM_BLOCK) elements that the
    limbs of a and b are written to; without it they are allocated."""
    presplit = a.dtype == np.float64
    rows = a.shape[0] // 3 if presplit else a.shape[0]
    width = min(a.shape[1], GEMM_BLOCK)
    if limbs is None:
        limbs = np.empty(0 if presplit else 3 * rows * width), np.empty(3 * b.shape[1] * width)
    out = None
    for lo in range(0, a.shape[1], GEMM_BLOCK):
        inner = slice(lo, lo + GEMM_BLOCK)
        left = a[:, inner] if presplit else _limbs(a[:, inner], limbs[0])
        block = _combine_limbs(left @ _limbs(b[inner].T, limbs[1]).T)
        out = block if out is None else vadd(out, block, out=out)
    return out


def split(a: np.ndarray) -> np.ndarray:
    """The (3P, K) float64 limbs of a canonical (P, K) array, which ``matmul``
    takes in place of ``a``."""
    return _limbs(a, np.empty(3 * a.size))


def _combine_limbs(sums: np.ndarray) -> np.ndarray:
    """Canonical (P, R) values of a (3P, 3R) GEMM of limbs, whose entries
    are integers below 2^53."""
    rows, cols = sums.shape[0] // 3, sums.shape[1] // 3
    g = sums.astype(np.uint64).reshape(3, rows, 3, cols)  # [i, :, j, :] = limb pair (i, j)
    # weight 2^(21(i+j)) mod Q: 1, 2^21, 2^42, 2^63 = 4 and 2^84 = 2^23 = 4 * 2^21
    low = g[0, :, 0] + (np.add(g[1, :, 2], g[2, :, 1]) << _S2)  # < 2^57
    mid = g[0, :, 1] + g[1, :, 0]
    mid += g[2, :, 2] << _S2  # < 2^56
    high = g[0, :, 2] + g[1, :, 1]
    high += g[2, :, 0]  # < 2^55
    low += _rotate(mid, _S21)
    low += _rotate(high, _S42)  # < 2^57 + 2^62
    return _fold(low)


def _fold(x: np.ndarray) -> np.ndarray:
    """x mod Q, canonical, for any uint64 x."""
    x = (x & _QV) + (x >> _S61)  # < Q + 8
    return np.minimum(x, x - _QV, out=x)


def _rotate(x: np.ndarray, e: np.uint64) -> np.ndarray:
    """x * 2^e mod Q for x < 2^61: the 61-bit rotation of x by e."""
    out = np.left_shift(x, e)
    out &= _QV
    out |= x >> (_S61 - e)
    return out


def _limbs(x: np.ndarray, buffer: np.ndarray) -> np.ndarray:
    """(3 * rows, K) float64 limbs of the (rows, K) array x, written to the
    front of the 1-D float64 ``buffer``: row i * rows + r holds limb i of
    row r."""
    out = buffer[: 3 * x.size].reshape((3,) + x.shape)
    np.bitwise_and(x, _LIMB_MASKS[:, None, None], out=out, casting="unsafe")
    out *= _LIMB_SCALES[:, None, None]  # exact: each limb has at most 21 significant bits
    return out.reshape(-1, x.shape[-1])


def vsum(a: np.ndarray) -> int:
    """Sum of canonical elements mod Q."""
    return vsum_rows(np.asarray(a, dtype=np.uint64).reshape(1, -1))[0]


def vsum_rows(a: np.ndarray) -> list[int]:
    """Sum mod Q of each row of a 2-D array of canonical elements.

    Summing the 32-bit halves apart keeps each uint64 total exact for rows
    of up to 2^32 elements."""
    hi = np.sum(a >> _S32, axis=1)  # < 2^61
    lo = np.sum(a & _MASK32, axis=1)
    return vadd(_rotate(_fold(hi), _S32), _fold(lo)).tolist()


def grouped_sums(ids: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """Sums mod Q of the canonical 1-D ``values`` grouped by ``ids``: entry s
    sums values[i] over the i with ids[i] = s, for s < ``size``.

    The 29-bit high and 32-bit low halves are summed apart in uint64
    (``np.add.at``), exact for groups of up to 2^32 values: their high sums
    stay below 2^61 and their low sums below 2^64, and both fold as in
    ``vsum_rows``."""
    high = np.zeros(size, dtype=np.uint64)
    low = np.zeros(size, dtype=np.uint64)
    np.add.at(high, ids, values >> _S32)
    np.add.at(low, ids, values & _MASK32)
    return vadd(_rotate(_fold(high), _S32), _fold(low))


def factorials(n: int) -> tuple[list[int], list[int]]:
    """(m!, 1/m!) in GF(Q) for m = 0..n-1 (n < Q), with one inversion."""
    fact = list(itertools.accumulate(range(1, n), fmul, initial=1))
    return fact, list(itertools.accumulate(range(n - 1, 0, -1), fmul, initial=finv(fact[-1])))[::-1]


def lagrange_weights(num_nodes: int) -> list[int]:
    """Barycentric weights for integer nodes 0..num_nodes-1 over GF(Q):
    w_j = 1 / prod_(i != j) (j - i) = (-1)^(num_nodes-1-j) / (j! (num_nodes-1-j)!)."""
    _, inv = factorials(num_nodes)
    return [fmul(fmul(inv[j], inv[-1 - j]), Q - 1 if (num_nodes - 1 - j) & 1 else 1) for j in range(num_nodes)]


class StreamedNodeEval:
    """Streaming evaluation of an interpolant at a fixed point with O(1) memory.

    Feed node values one at a time; also captures the values at nodes 0 and 1
    for the round-consistency check. Holds a constant number of field-element
    registers regardless of message length. The barycentric form is
    ell * sum_j w_j v_j / (t - j) with ell = prod_j (t - j); ``acc`` holds the
    product of the partial ell and the partial sum, which stays a polynomial
    in the fed values, so no node needs an inversion.
    """

    def __init__(self, t: int, num_nodes: int, weights: Sequence[int]):
        self.t = t % Q
        self.num_nodes = num_nodes
        self.weights = weights  # shared constant table, not per-message state
        self.j = 0
        self.ell = 1
        self.acc = 0
        self.at_zero = None
        self.at_one = None
        self.node_hit = None

    def feed(self, value: int):
        value %= Q
        j = self.j
        if j == 0:
            self.at_zero = value
        elif j == 1:
            self.at_one = value
        if self.t == j % Q:
            self.node_hit = value
        diff = fsub(self.t, j)
        if diff != 0:
            # ell' S' = (ell diff)(S + w_j v / diff) = (ell S) diff + w_j v ell
            self.acc = fadd(fmul(self.acc, diff), fmul(fmul(self.weights[j], value), self.ell))
            self.ell = fmul(self.ell, diff)
        self.j += 1

    def result(self) -> int:
        if self.j != self.num_nodes:
            raise ValueError("message length mismatch")
        if self.node_hit is not None:
            return self.node_hit
        return self.acc
