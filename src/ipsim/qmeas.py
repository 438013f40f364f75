"""Measurement and sampling primitives.

Basis measurements, SWAP tests, Bell-difference and two-copy Pauli-moment
sampling (one batched law each, which the scalar samplers and
``stab_ip.estimate_A3`` run) and exact-uniform Clifford sampling. All
sampling is exact-law: outcome probabilities are computed from the classical
state descriptions the simulator holds, then sampled. Pauli phase convention
is fixed globally to the Hermitian form W = i^(x.z) X^x Z^z, so every Pauli
expectation is real.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .qcore import (
    DimensionError,
    InvariantError,
    PureState,
    UnitaryOp,
)


@dataclass(frozen=True)
class PauliLabel:
    """n-qubit Hermitian Pauli W = i^(x.z) X^x Z^z, addressed by two n-bit ints."""

    n: int
    x: int
    z: int

    def __post_init__(self):
        if not (0 <= self.x < (1 << self.n) and 0 <= self.z < (1 << self.n)):
            raise InvariantError("pauli bits out of range for n qubits")

    @property
    def index(self) -> int:
        """Flat index x + (z << n) into length-4^n arrays."""
        return self.x + (self.z << self.n)

    @classmethod
    def from_index(cls, n: int, index: int) -> "PauliLabel":
        mask = (1 << n) - 1
        return cls(n=n, x=index & mask, z=(index >> n) & mask)


@lru_cache(maxsize=16384)
def dense_pauli(label: PauliLabel) -> np.ndarray:
    """Dense 2^n x 2^n matrix of the Hermitian Pauli (cached, read-only)."""
    n, x, z = label.n, label.x, label.z
    d = 1 << n
    j = np.arange(d)
    cols = j ^ x
    signs = 1 - 2 * (_popcount_array(j & z) & 1)
    phase = 1j ** (bin(x & z).count("1") % 4)
    mat = np.zeros((d, d), dtype=complex)
    # W|j> = i^(x.z) (-1)^(z.j) |j ^ x>
    mat[cols, j] = phase * signs
    mat.setflags(write=False)
    return mat


def _popcount_array(a: np.ndarray) -> np.ndarray:
    out = np.zeros_like(a)
    v = a.copy()
    while np.any(v):
        out += v & 1
        v >>= 1
    return out


@lru_cache(maxsize=8)
def hadamard_sign_matrix(n: int) -> np.ndarray:
    """H[z, m] = (-1)^popcount(z & m), the Sylvester-Hadamard sign matrix
    (cached, read-only)."""
    h = np.array([[1.0]])
    block = np.array([[1.0, 1.0], [1.0, -1.0]])
    for _ in range(n):
        h = np.kron(h, block)
    h.setflags(write=False)
    return h


@lru_cache(maxsize=8)
def _expectation_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(XOR, PHASE), both (d, d), cached and read-only: XOR[x, m] = m ^ x and
    PHASE[z, x] = i^popcount(x & z), the phase of W_(x,z) = i^(x.z) X^x Z^z."""
    d = 1 << n
    j = np.arange(d)
    xor = j[None, :] ^ j[:, None]
    phase = 1j ** (_popcount_array(j[:, None] & j[None, :]) % 4)
    xor.setflags(write=False)
    phase.setflags(write=False)
    return xor, phase


def num_qubits(psi) -> int:
    """Qubit count of a PureState or of a d x d density-matrix array."""
    dim = len(psi) if isinstance(psi, np.ndarray) else psi.dim
    n = int(round(np.log2(dim)))
    if (1 << n) != dim:
        raise DimensionError(f"dimension {dim} is not a power of two")
    return n


def pauli_expectations(psi) -> np.ndarray:
    """All 4^n expectations tr(rho W_a), indexed by a = x + (z << n), of a
    PureState or of a density matrix given as a d x d array.

    <W_(x,z)> = i^(x.z) sum_m (-1)^(z.m) rho_(m, m^x), where a pure state has
    rho_(m, m') = psi_m conj(psi_m'): one (d, d) gather V[x, m] = rho_(m, m^x),
    one Hadamard product per row and one phase table. The rows go through a
    stacked matrix-vector product, so each sum is the one a single row's
    product gives.
    """
    n = num_qubits(psi)
    xor, phase = _expectation_tables(n)
    if isinstance(psi, np.ndarray):
        v = psi[np.arange(1 << n), xor]
    else:
        v = psi.amplitudes * psi.amplitudes[xor].conj()
    vals = np.matmul(hadamard_sign_matrix(n), v[:, :, None])[:, :, 0]  # [x, z]
    return np.real(phase * vals.T).ravel()


def characteristic_distribution(psi, expectations: np.ndarray | None = None) -> np.ndarray:
    """p(a) = 2^-n tr(rho W_a)^2 of a PureState or of a density matrix given
    as a d x d array. It sums to tr(rho^2), so a mixed state raises.

    Pass ``expectations`` to reuse a precomputed ``pauli_expectations(psi)``.
    """
    n = num_qubits(psi)
    exps = pauli_expectations(psi) if expectations is None else expectations
    p = exps**2 / (1 << n)
    total = p.sum()
    if abs(total - 1.0) > 1e-8:
        raise InvariantError(f"characteristic distribution sums to {total}, state not pure?")
    return p / total


def basis_probabilities(mat: np.ndarray, u: UnitaryOp | np.ndarray) -> np.ndarray:
    """Born probabilities <i|U+ mat U|i> of measuring in the columns of ``u``.

    ``u`` is a UnitaryOp or a stack (..., d, d) of checked unitaries, such as
    ``qcore.sample_haar_unitaries`` returns; a stack gives a row per unitary.
    """
    ue = u.entries if isinstance(u, UnitaryOp) else u
    probs = np.real(np.einsum("...ji,jk,...ki->...i", ue.conj(), mat, ue))
    probs = np.clip(probs, 0.0, None)
    total = probs.sum(axis=-1, keepdims=True)
    off = np.abs(total - 1.0) > 1e-9
    if off.any():
        raise InvariantError(f"outcome probabilities sum to {total[off][0]}")
    return probs / total


def swap_test(rho, sigma, rng: np.random.Generator) -> int:
    """1 (accept) with probability (1 + Tr[rho sigma]) / 2; consumes one copy of each."""
    return int(rng.random() < swap_probability(rho, sigma))


def swap_probability(rho, sigma) -> float:
    """SWAP-test accept probability (1 + Tr[rho sigma]) / 2 of two states."""
    a = rho.entries if hasattr(rho, "entries") else np.asarray(rho, dtype=complex)
    b = sigma.entries if hasattr(sigma, "entries") else np.asarray(sigma, dtype=complex)
    if a.shape != b.shape:
        raise DimensionError("swap_test dimension mismatch")
    # Tr[a b] for Hermitian a equals <a, b> elementwise
    overlap = float(np.real(np.vdot(a, b)))
    return min(max((1.0 + overlap) / 2.0, 0.0), 1.0)


def swap_purity_estimate(states, rng: np.random.Generator) -> float:
    """Purity estimate 2h/m - 1 from SWAP tests on the m = len(states) // 2
    pairs of ``states``, all copies of one state, with h the accepted pairs."""
    pairs = len(states) // 2
    hits = int(rng.binomial(pairs, swap_probability(states[0], states[1])))
    return 2 * hits / pairs - 1


def bell_difference_labels(p: np.ndarray, size: int, rng: np.random.Generator) -> np.ndarray:
    """``size`` Bell-difference labels, each distributed as q = p * p, the
    XOR self-convolution of the characteristic distribution ``p``.

    Physically a 4-copy procedure; realized here by drawing 2 * size labels
    from p by inverse CDF and XOR-ing them pairwise, which is
    distribution-identical. The draw is ``Generator.choice``'s own algorithm,
    so labels and generator end state equal those of
    ``rng.choice(p.size, size=(size, 2), p=p)``.
    """
    if p.min() < 0:
        raise InvariantError("characteristic distribution has a negative entry")
    cdf = p.cumsum()
    if not abs(cdf[-1] - 1.0) <= 1e-8:
        raise InvariantError(f"characteristic distribution sums to {cdf[-1]}")
    cdf /= cdf[-1]
    idx = cdf.searchsorted(rng.random(2 * size), side="right")
    return idx[0::2] ^ idx[1::2]


def pauli_moment_bits(expectations, rng: np.random.Generator) -> np.ndarray:
    """One two-copy Pauli-moment bit per expectation <W>.

    W is measured on two independent copies, each outcome +1 with probability
    (1 + <W>) / 2; all first outcomes z1 are drawn before all second ones z2.
    The bit is (z1*z2 + 1)/2, i.e. 1 iff the outcomes agree, so its mean is
    (<W>^2 + 1)/2; callers map the mean back through m -> 2m - 1.
    """
    p_plus = (1.0 + np.asarray(expectations)) / 2.0
    z1 = rng.random(p_plus.shape) < p_plus
    z2 = rng.random(p_plus.shape) < p_plus
    return (z1 == z2).astype(np.int64)


def bell_difference_sample(
    psi: PureState,
    rng: np.random.Generator,
    char_dist: np.ndarray | None = None,
) -> PauliLabel:
    """One Bell-difference sample (``bell_difference_labels`` of size 1).

    Pass ``char_dist`` to reuse a precomputed characteristic distribution.
    """
    p = characteristic_distribution(psi) if char_dist is None else char_dist
    return PauliLabel.from_index(num_qubits(psi), int(bell_difference_labels(p, 1, rng)[0]))


def pauli_moment_sample(
    psi: PureState,
    label: PauliLabel,
    rng: np.random.Generator,
    expectation: float | None = None,
) -> int:
    """One two-copy Pauli-moment bit for W = ``label`` (``pauli_moment_bits``
    of one expectation)."""
    if expectation is None:
        if (1 << label.n) != psi.dim:
            raise DimensionError("pauli label qubit count mismatch")
        expectation = float(pauli_expectations(psi)[label.index])
    return int(pauli_moment_bits(expectation, rng))


# ---------------------------------------------------------------------------
# Uniform Clifford sampling via the symplectic-group index construction
# (transvection decomposition), then dense synthesis from the tableau.
# ---------------------------------------------------------------------------


def _symplectic_inner(v: np.ndarray, w: np.ndarray) -> int:
    t = 0
    for i in range(v.size >> 1):
        t += v[2 * i] * w[2 * i + 1] + w[2 * i] * v[2 * i + 1]
    return t % 2


def _transvection(k: np.ndarray, v: np.ndarray) -> np.ndarray:
    return (v + _symplectic_inner(k, v) * k) % 2


def _int_to_bits(i: int, n: int) -> np.ndarray:
    return np.array([(i >> j) & 1 for j in range(n)], dtype=np.int8)


def _find_transvection(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pair (h1, h2) of transvections with y = Z_h1 Z_h2 x; rows may be zero."""
    nn = x.size
    out = np.zeros((2, nn), dtype=np.int8)
    if np.array_equal(x, y):
        return out
    if _symplectic_inner(x, y) == 1:
        out[0] = (x + y) % 2
        return out
    z = np.zeros(nn, dtype=np.int8)
    for i in range(nn >> 1):
        ii = 2 * i
        if (x[ii] + x[ii + 1]) != 0 and (y[ii] + y[ii + 1]) != 0:
            z[ii] = (x[ii] + y[ii]) % 2
            z[ii + 1] = (x[ii + 1] + y[ii + 1]) % 2
            if z[ii] + z[ii + 1] == 0:
                z[ii + 1] = 1
                if x[ii] != x[ii + 1]:
                    z[ii] = 1
            out[0] = (x + z) % 2
            out[1] = (y + z) % 2
            return out
    for i in range(nn >> 1):
        ii = 2 * i
        if (x[ii] + x[ii + 1]) != 0 and (y[ii] + y[ii + 1]) == 0:
            if x[ii] == x[ii + 1]:
                z[ii + 1] = 1
            else:
                z[ii + 1] = x[ii]
                z[ii] = x[ii + 1]
            break
    for i in range(nn >> 1):
        ii = 2 * i
        if (x[ii] + x[ii + 1]) == 0 and (y[ii] + y[ii + 1]) != 0:
            if y[ii] == y[ii + 1]:
                z[ii + 1] = 1
            else:
                z[ii + 1] = y[ii]
                z[ii] = y[ii + 1]
            break
    out[0] = (x + z) % 2
    out[1] = (y + z) % 2
    return out


def sample_symplectic(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform 2n x 2n symplectic matrix over GF(2), interleaved (x1,z1,...) layout.

    Per-level uniform sub-indices replace the single canonical index of the
    published construction; the decomposition is a bijection, so uniformity
    is preserved.
    """
    nn = 2 * n
    k = int(rng.integers(1, 1 << nn))
    f1 = _int_to_bits(k, nn)
    e1 = np.zeros(nn, dtype=np.int8)
    e1[0] = 1
    t_pair = _find_transvection(e1, f1)
    bits = rng.integers(0, 2, size=nn - 1).astype(np.int8)
    eprime = e1.copy()
    for j in range(2, nn):
        eprime[j] = bits[j - 1]
    h0 = _transvection(t_pair[0], eprime)
    h0 = _transvection(t_pair[1], h0)
    if bits[0] == 1:
        f1 = np.zeros(nn, dtype=np.int8)
    if n == 1:
        g = np.eye(2, dtype=np.int8)
    else:
        g = np.zeros((nn, nn), dtype=np.int8)
        g[:2, :2] = np.eye(2, dtype=np.int8)
        g[2:, 2:] = sample_symplectic(n - 1, rng)
    for j in range(nn):
        row = g[j]
        row = _transvection(t_pair[0], row)
        row = _transvection(t_pair[1], row)
        row = _transvection(h0, row)
        row = _transvection(f1, row)
        g[j] = row
    return g


def _interleaved_to_label(n: int, v: np.ndarray) -> PauliLabel:
    x = sum(int(v[2 * i]) << i for i in range(n))
    z = sum(int(v[2 * i + 1]) << i for i in range(n))
    return PauliLabel(n, x, z)


def sample_uniform_clifford(n: int, rng: np.random.Generator) -> UnitaryOp:
    """Exactly uniform n-qubit Clifford (mod global phase) as a dense unitary.

    Uniform symplectic matrix plus 2n uniform sign bits fix the conjugation
    action on all generators; the dense matrix is synthesized column by
    column from the stabilizer state it maps |0..0> to.
    """
    if n > 6:
        raise DimensionError("dense Clifford sampling capped at n = 6")
    d = 1 << n
    g = sample_symplectic(n, rng)
    signs = rng.integers(0, 2, size=2 * n)
    # row 2j = image of X_j, row 2j+1 = image of Z_j
    img_x = []
    img_z = []
    for j in range(n):
        gx = dense_pauli(_interleaved_to_label(n, g[2 * j])) * (-1) ** int(signs[2 * j])
        gz = dense_pauli(_interleaved_to_label(n, g[2 * j + 1])) * (-1) ** int(signs[2 * j + 1])
        img_x.append(gx)
        img_z.append(gz)
    proj = np.eye(d, dtype=complex)
    for gz in img_z:
        proj = proj @ (np.eye(d, dtype=complex) + gz) / 2
    col_norms = np.linalg.norm(proj, axis=0)
    anchor = int(np.argmax(col_norms))
    phi0 = proj[:, anchor] / col_norms[anchor]
    cols = np.empty((d, d), dtype=complex)
    cols[:, 0] = phi0
    for x in range(1, d):
        v = phi0
        for j in range(n):
            if (x >> j) & 1:
                v = img_x[j] @ v
        cols[:, x] = v
    return UnitaryOp(cols)
