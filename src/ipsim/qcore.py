"""Dense complex linear algebra over small Hilbert-space dimensions.

States, unitaries, Schatten norms, spectra, rank truncations and random
sampling. Everything is dense numpy; protocols in this package run at
d <= 64, so no sparse or tensor-network backend exists or is planned.
All randomness comes in through an explicit numpy Generator handle.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

HERM_ATOL = 1e-10
EIG_FLOOR = -1e-10
TRACE_ATOL = 1e-10
UNITARY_ATOL = 1e-9


class DimensionError(ValueError):
    """Operands have incompatible or invalid dimensions."""


class InvariantError(ValueError):
    """A domain-type invariant failed on construction."""


def _as_complex_array(a) -> np.ndarray:
    arr = np.array(a, dtype=complex)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class PureState:
    """Normalized complex amplitude vector of dimension d."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _as_complex_array(self.amplitudes)
        if amps.ndim != 1 or amps.size < 1:
            raise DimensionError("amplitudes must be a non-empty vector")
        norm2 = float(np.vdot(amps, amps).real)
        if abs(norm2 - 1.0) > 1e-10:
            raise InvariantError(f"squared amplitude sum {norm2} != 1")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def density(self) -> "DensityMatrix":
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()))


def last_state_cache(fn):
    """One-slot cache for an array-valued ``fn(psi)`` of a PureState.

    The result for the last state is kept, keyed on its amplitude bytes, and
    returned read-only, so a caller can neither see another state's values
    nor change the ones the next caller reads.
    """
    slot: list = [None, None]  # [amplitude bytes, result]

    @functools.wraps(fn)
    def cached(psi: PureState) -> np.ndarray:
        key = psi.amplitudes.tobytes()
        if key != slot[0]:
            value = fn(psi)
            value.setflags(write=False)
            slot[:] = key, value
        return slot[1]

    return cached


def _check_psd_matrix(entries: np.ndarray, trace_range, label: str) -> np.ndarray:
    if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
        raise DimensionError(f"{label} entries must be square")
    if not np.abs(entries - entries.conj().T).max() <= HERM_ATOL:  # False on NaN too
        raise InvariantError(f"{label} not Hermitian within {HERM_ATOL}")
    evals = np.linalg.eigvalsh(entries)
    if evals.min() < EIG_FLOOR:
        raise InvariantError(f"{label} has eigenvalue {evals.min()} < {EIG_FLOOR}")
    tr = float(np.trace(entries).real)
    lo, hi = trace_range
    if not (lo <= tr <= hi):
        raise InvariantError(f"{label} trace {tr} outside [{lo}, {hi}]")
    return entries


@dataclass(frozen=True)
class DensityMatrix:
    """d x d Hermitian PSD matrix with unit trace."""

    entries: np.ndarray

    def __post_init__(self):
        entries = _as_complex_array(self.entries)
        _check_psd_matrix(entries, (1.0 - TRACE_ATOL, 1.0 + TRACE_ATOL), "DensityMatrix")
        object.__setattr__(self, "entries", entries)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class SubnormalizedPSD:
    """Hermitian PSD matrix with trace in [0, 1]; relaxes only the trace invariant."""

    entries: np.ndarray

    def __post_init__(self):
        entries = _as_complex_array(self.entries)
        _check_psd_matrix(entries, (-TRACE_ATOL, 1.0 + TRACE_ATOL), "SubnormalizedPSD")
        object.__setattr__(self, "entries", entries)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class UnitaryOp:
    """d x d unitary; U U+ = 1 within 1e-9 in max entry norm."""

    entries: np.ndarray

    def __post_init__(self):
        entries = _as_complex_array(self.entries)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise DimensionError("UnitaryOp entries must be square")
        d = entries.shape[0]
        resid = np.abs(entries @ entries.conj().T - np.eye(d)).max()
        if resid > UNITARY_ATOL:
            raise InvariantError(f"unitarity residual {resid} > {UNITARY_ATOL}")
        object.__setattr__(self, "entries", entries)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted non-increasing plus the diagonalizing basis.

    Columns of ``basis`` are the eigenvectors matching ``values``.
    """

    values: np.ndarray
    basis: UnitaryOp

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        vals.setflags(write=False)
        if np.any(np.diff(vals) > 1e-12):
            raise InvariantError("spectrum values not sorted non-increasing")
        object.__setattr__(self, "values", vals)


def basis_state(d: int, index: int = 0) -> PureState:
    amps = np.zeros(d, dtype=complex)
    amps[index] = 1.0
    return PureState(amps)


def maximally_mixed(d: int) -> DensityMatrix:
    return DensityMatrix(np.eye(d, dtype=complex) / d)


def schatten_norm(a: np.ndarray, p) -> float:
    """Schatten p-norm (sum of singular values^p)^(1/p); max singular value at p=inf."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError("schatten_norm expects a square matrix")
    sv = np.linalg.svd(a, compute_uv=False)
    if p == np.inf or p == "inf":
        return float(sv.max()) if sv.size else 0.0
    p = float(p)
    if p < 1:
        raise ValueError("p must be >= 1")
    return float((sv**p).sum() ** (1.0 / p))


def one_norm_distance(rho, sigma) -> float:
    """||rho - sigma||_1, the distance every protocol check in this package uses."""
    a = rho.entries if hasattr(rho, "entries") else np.asarray(rho)
    b = sigma.entries if hasattr(sigma, "entries") else np.asarray(sigma)
    return schatten_norm(a - b, 1)


def fidelity_pure(psi: PureState, rho) -> float:
    """<psi| rho |psi>; equals |<psi|phi>|^2 for rho = |phi><phi|."""
    mat = rho.entries if hasattr(rho, "entries") else np.asarray(rho, dtype=complex)
    if mat.shape[0] != psi.dim:
        raise DimensionError(f"dim mismatch {mat.shape[0]} vs {psi.dim}")
    val = float(np.real(np.vdot(psi.amplitudes, mat @ psi.amplitudes)))
    return min(max(val, 0.0), 1.0)


def purity(rho) -> float:
    """Tr rho^2; 1 iff pure, 1/d for maximally mixed."""
    mat = rho.entries if hasattr(rho, "entries") else np.asarray(rho, dtype=complex)
    return float(np.real(np.vdot(mat, mat)))


def eig_sorted(h) -> Spectrum:
    """Eigendecomposition with eigenvalues sorted non-increasing."""
    mat = h.entries if hasattr(h, "entries") else np.asarray(h, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionError("eig_sorted expects a square matrix")
    if not np.allclose(mat, mat.conj().T, rtol=0.0, atol=1e-8):
        raise InvariantError("eig_sorted input not Hermitian within tolerance")
    vals, vecs = np.linalg.eigh(mat)
    order = np.argsort(vals)[::-1]
    return Spectrum(values=vals[order], basis=UnitaryOp(vecs[:, order]))


def truncate_rank_k(rho: DensityMatrix, k: int, normalize: bool = False):
    """Keep the k largest eigenvalues, zero the rest.

    Returns a SubnormalizedPSD, or a DensityMatrix when ``normalize`` divides
    out the surviving trace.
    """
    d = rho.dim
    if not 1 <= k <= d:
        raise DimensionError(f"k={k} outside [1, {d}]")
    spec = eig_sorted(rho)
    vals = np.clip(spec.values, 0.0, None)
    kept = np.zeros_like(vals)
    kept[:k] = vals[:k]
    u = spec.basis.entries
    mat = (u * kept) @ u.conj().T
    mat = (mat + mat.conj().T) / 2
    if normalize:
        tr = kept.sum()
        if tr <= 1e-12:
            raise ValueError("cannot normalize near-zero truncation")
        return DensityMatrix(mat / tr)
    return SubnormalizedPSD(mat)


def _haar_factors(g: np.ndarray) -> np.ndarray:
    """Q of the QR of the complex Gaussians (g[:, 0] + i g[:, 1]) / sqrt(2),
    phases fixed by R's diagonal (Mezzadri, math-ph/0609050), unchecked. At
    g of shape (n, 2, d, k < d) these are the first k columns of the d x d
    factors, bit for bit: the first k Householder reflectors read only them."""
    if g.shape[-2] < 2:
        raise DimensionError("d must be >= 2")
    q, r = np.linalg.qr((g[:, 0] + 1j * g[:, 1]) / np.sqrt(2))
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[:, None, :]


def haar_factors(g: np.ndarray) -> np.ndarray:
    """``_haar_factors(g)``, each factor's columns held orthonormal to
    ``UNITARY_ATOL`` in max entry norm: a full factor is then unitary like
    a ``UnitaryOp``, and a one-column factor a unit vector."""
    q = _haar_factors(g)
    resid = np.abs(q.conj().swapaxes(-1, -2) @ q - np.eye(q.shape[-1])).max(initial=0.0)
    if resid > UNITARY_ATOL:
        raise InvariantError(f"unitarity residual {resid} > {UNITARY_ATOL}")
    return q


def sample_haar_unitaries(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """n Haar-uniform d x d unitaries, shape (n, d, d), from one
    ``standard_normal((n, 2, d, d))`` draw: the real-part and then the
    imaginary-part block of each matrix in turn, so the same matrices and
    draws as n successive ``sample_haar_unitary`` calls."""
    return haar_factors(rng.standard_normal((n, 2, d, d)))


def sample_haar_unitary(d: int, rng: np.random.Generator) -> UnitaryOp:
    """Haar-uniform unitary: QR of a complex Gaussian with phase-fixed diagonal."""
    return UnitaryOp(_haar_factors(rng.standard_normal((1, 2, d, d)))[0])


def sample_pure_state(d: int, rng: np.random.Generator) -> PureState:
    """Haar-random pure state."""
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return PureState(v / np.linalg.norm(v))


def sample_state(d: int, rank: int, rng: np.random.Generator) -> DensityMatrix:
    """Random state: Haar pure at rank 1, normalized rank-r Wishart otherwise."""
    if not 1 <= rank <= d:
        raise DimensionError(f"rank={rank} outside [1, {d}]")
    if rank == 1:
        return sample_pure_state(d, rng).density()
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    w = g @ g.conj().T
    w = (w + w.conj().T) / 2
    return DensityMatrix(w / np.trace(w).real)


def project_to_density(mat: np.ndarray) -> DensityMatrix:
    """Frobenius-nearest density matrix: eigenbasis kept, spectrum simplex-projected."""
    mat = np.asarray(mat, dtype=complex)
    herm = (mat + mat.conj().T) / 2
    vals, vecs = np.linalg.eigh(herm)
    proj = _project_to_simplex(vals)
    out = (vecs * proj) @ vecs.conj().T
    out = (out + out.conj().T) / 2
    # renormalize away float dust so the DensityMatrix invariants hold exactly
    out /= np.trace(out).real
    return DensityMatrix(out)


def _project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of a real vector onto the probability simplex."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, v.size + 1)
    cond = u - css / idx > 0
    rho = idx[cond][-1]
    theta = css[rho - 1] / rho
    return np.clip(v - theta, 0.0, None)
