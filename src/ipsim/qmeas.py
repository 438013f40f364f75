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
    last_state_cache,
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
    signs = 1 - 2 * (popcount_table(n)[j & z] & 1)
    phase = 1j ** ((x & z).bit_count() % 4)
    mat = np.zeros((d, d), dtype=complex)
    # W|j> = i^(x.z) (-1)^(z.j) |j ^ x>
    mat[cols, j] = phase * signs
    mat.setflags(write=False)
    return mat


@lru_cache(maxsize=8)
def popcount_table(n: int) -> np.ndarray:
    """popcount(w) for w in 0..2^n - 1 (cached, read-only)."""
    table = np.array([w.bit_count() for w in range(1 << n)])
    table.setflags(write=False)
    return table


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
    phase = 1j ** (popcount_table(n)[j[:, None] & j[None, :]] % 4)
    xor.setflags(write=False)
    phase.setflags(write=False)
    return xor, phase


def num_qubits(psi) -> int:
    """Qubit count of a PureState or of a d x d density-matrix array."""
    dim = len(psi) if isinstance(psi, np.ndarray) else psi.dim
    if dim < 1 or dim & (dim - 1):
        raise DimensionError(f"dimension {dim} is not a power of two")
    return dim.bit_length() - 1


def pauli_expectations(psi) -> np.ndarray:
    """All 4^n expectations tr(rho W_a), indexed by a = x + (z << n), of a
    PureState or of a density matrix given as a d x d array.

    <W_(x,z)> = i^(x.z) sum_m (-1)^(z.m) rho_(m, m^x), where a pure state has
    rho_(m, m') = psi_m conj(psi_m'): one (d, d) gather V[x, m] = rho_(m, m^x),
    one Hadamard product per row and one phase table. The rows go through a
    stacked matrix-vector product, so each sum is the one a single row's
    product gives. A PureState's vector is computed once while it is the
    last state asked for (``qcore.last_state_cache``) and is read-only.
    """
    return _expectations(psi) if isinstance(psi, np.ndarray) else _pure_expectations(psi)


def _expectations(psi) -> np.ndarray:
    n = num_qubits(psi)
    xor, phase = _expectation_tables(n)
    if isinstance(psi, np.ndarray):
        v = psi[np.arange(1 << n), xor]
    else:
        v = psi.amplitudes * psi.amplitudes[xor].conj()
    vals = np.matmul(hadamard_sign_matrix(n), v[:, :, None])[:, :, 0]  # [x, z]
    return np.real(phase * vals.T).ravel()


_pure_expectations = last_state_cache(_expectations)


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
    return swap_accept(np.vdot(a, b))


def swap_accept(overlap):
    """(1 + Re overlap) / 2, clamped to [0, 1]: the SWAP-test accept
    probability of two states whose ``np.vdot`` is ``overlap``, elementwise
    over an array of overlaps."""
    return np.minimum(np.maximum((1.0 + np.real(overlap)) / 2.0, 0.0), 1.0)


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
# A vector of F_2^{2n} is one Python int in the interleaved layout: bit 2i is
# x_i and bit 2i+1 is z_i. The symplectic product is then one masked
# popcount, a transvection one XOR, and a matrix row one int.
# ---------------------------------------------------------------------------


_MAX_SYMPLECTIC_QUBITS = 512
_X_BITS = int("01" * _MAX_SYMPLECTIC_QUBITS, 2)  # bits 0, 2, 4, ...: every x bit


def _symplectic_inner(v: int, w: int) -> int:
    return (((v & (w >> 1)) ^ (w & (v >> 1))) & _X_BITS).bit_count() & 1


def _transvection(k: int, v: int) -> int:
    return v ^ k if _symplectic_inner(k, v) else v


def _find_transvection(x: int, y: int, n: int) -> tuple[int, int]:
    """Pair (h1, h2) of transvections with y = Z_h1 Z_h2 x, for nonzero x and
    y; either may be 0."""
    if x == y:
        return 0, 0
    if _symplectic_inner(x, y):
        return x ^ y, 0
    # one-qubit parts, each 1 (X), 2 (Z) or 3 (Y) where nonzero
    pairs = [((x >> 2 * i) & 3, (y >> 2 * i) & 3) for i in range(n)]
    for i, (px, py) in enumerate(pairs):
        if px and py:
            z = ((px ^ py) or (2 if px == 3 else 3)) << 2 * i
            return x ^ z, y ^ z
    # x and y act on disjoint qubits: z anticommutes with each on its first one
    z = 0
    for side in (0, 1):
        i = next(i for i, pair in enumerate(pairs) if pair[side])
        z |= (1 if pairs[i][side] == 2 else 2) << 2 * i
    return x ^ z, y ^ z


def _symplectic_rows(n: int, rng: np.random.Generator) -> list[int]:
    """Rows of a uniform 2n x 2n symplectic matrix over GF(2), one int each.

    Per-level uniform sub-indices replace the single canonical index of the
    published construction; the decomposition is a bijection, so uniformity
    is preserved.
    """
    nn = 2 * n
    f1 = int(rng.integers(1, 1 << nn))
    h1, h2 = _find_transvection(1, f1, n)
    bits = rng.integers(0, 2, size=nn - 1).tolist()
    eprime = 1 | sum(b << j for j, b in enumerate(bits[1:], 2))
    h0 = _transvection(h2, _transvection(h1, eprime))
    if bits[0]:
        f1 = 0
    rows = [1, 2] + ([row << 2 for row in _symplectic_rows(n - 1, rng)] if n > 1 else [])
    for k in (h1, h2, h0, f1):
        rows = [_transvection(k, row) for row in rows]
    return rows


def sample_symplectic(n: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform 2n x 2n symplectic int8 matrix over GF(2), interleaved (x1,z1,...) layout."""
    if n > _MAX_SYMPLECTIC_QUBITS:
        raise DimensionError(f"symplectic sampling capped at n = {_MAX_SYMPLECTIC_QUBITS}")
    rows = _symplectic_rows(n, rng)
    return np.array([[(row >> j) & 1 for j in range(2 * n)] for row in rows], dtype=np.int8)


def _row_label(n: int, row: int) -> PauliLabel:
    x = sum(((row >> 2 * i) & 1) << i for i in range(n))
    z = sum(((row >> (2 * i + 1)) & 1) << i for i in range(n))
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
    g = _symplectic_rows(n, rng)
    signs = rng.integers(0, 2, size=2 * n)
    # row 2j = image of X_j, row 2j+1 = image of Z_j
    img_x = []
    img_z = []
    for j in range(n):
        gx = dense_pauli(_row_label(n, g[2 * j])) * (-1) ** int(signs[2 * j])
        gz = dense_pauli(_row_label(n, g[2 * j + 1])) * (-1) ** int(signs[2 * j + 1])
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
