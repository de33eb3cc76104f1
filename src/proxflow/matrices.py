"""Dense small-matrix primitives used by every other module.

Symmetric matrix functions go through eigendecompositions, the Lyapunov
solver through Kronecker vectorization, and the SPD quadratic matrix
equation through its closed form. Everything targets small dense matrices
(n up to ~16); nothing here is tuned for scale.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import (
    NumericFailure,
    SingularityError,
    StabilityError,
    ValidationError,
)

# Inputs count as symmetric when the asymmetry is below this relative drift;
# they are then replaced by (A + A^T)/2.
SYMMETRY_RTOL = 1e-9

# Smallest admissible eigenvalue, relative to (1 + largest); anything below
# is treated as singular rather than silently regularized.
POSITIVITY_RTOL = 1e-12


def as_square(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite square float array (scalars become 1x1)."""
    m = np.asarray(a, dtype=float)
    if m.ndim == 0:
        m = m.reshape(1, 1)
    elif m.ndim == 1 and m.size == 1:
        m = m.reshape(1, 1)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValidationError(f"{name} has non-finite entries")
    return m


def max_abs(a) -> float:
    a = np.asarray(a, dtype=float)
    return float(np.max(np.abs(a))) if a.size else 0.0


def matvec(mat: np.ndarray, x: np.ndarray) -> np.ndarray:
    """mat @ x for one vector x (n,) or for each row of a batch (S, n).

    The stacked product gives every row exactly its one-vector arithmetic,
    so a batched recursion reproduces its one-vector runs bit for bit; a
    multi-column product (mat @ x.T).T would not.
    """
    return (mat @ x[..., None])[..., 0]


def is_symmetric(m: np.ndarray) -> bool:
    """max|M - M^T| <= SYMMETRY_RTOL (1 + max|M|), for a square array M."""
    return max_abs(m - m.T) <= SYMMETRY_RTOL * (1.0 + max_abs(m))


def is_isotropic(m: np.ndarray, level: float) -> bool:
    """max|M - level I| <= SYMMETRY_RTOL (1 + |level|), for a square array M."""
    return max_abs(m - level * np.eye(m.shape[0])) <= SYMMETRY_RTOL * (1.0 + abs(level))


def symmetrize(a, name: str = "matrix") -> np.ndarray:
    """Return (A + A^T)/2, rejecting inputs beyond the asymmetry tolerance."""
    m = as_square(a, name)
    if not is_symmetric(m):
        raise ValidationError(f"{name} is not symmetric: asymmetry {max_abs(m - m.T):.3e}")
    return 0.5 * (m + m.T)


class SpdMatrix:
    """Symmetric positive-definite matrix with a cached eigendecomposition.

    Construction validates symmetry (within tolerance) and positivity
    (eigenvalues above the relative floor). Instances are immutable; the
    cached factors back all matrix-function evaluations.
    """

    __slots__ = ("mat", "eigenvalues", "eigenvectors")

    def __init__(self, mat):
        m = symmetrize(mat, "SPD matrix")
        try:
            if m.shape == (1, 1):  # scalar fast path; eigh overhead dominates 1x1 work
                w, v = m[0].copy(), np.ones((1, 1))
            else:
                w, v = np.linalg.eigh(m)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - eigh on finite input
            raise NumericFailure(f"eigendecomposition failed: {exc}") from exc
        if not np.all(np.isfinite(w)):
            raise NumericFailure("eigendecomposition produced non-finite eigenvalues")
        if w[0] <= POSITIVITY_RTOL * (1.0 + w[-1]):
            raise SingularityError(
                "matrix is not positive definite within the floor: "
                f"eigenvalues in [{w[0]:.3e}, {w[-1]:.3e}]"
            )
        for arr in (m, w, v):
            arr.flags.writeable = False
        self.mat = m
        self.eigenvalues = w
        self.eigenvectors = v

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def map_eigenvalues(self, fn) -> np.ndarray:
        """V diag(fn(w)) V^T as a plain symmetric array."""
        scaled = self.eigenvectors * fn(self.eigenvalues)
        out = scaled @ self.eigenvectors.T
        return 0.5 * (out + out.T)

    def logdet(self) -> float:
        return float(np.sum(np.log(self.eigenvalues)))

    def trace(self) -> float:
        return float(np.trace(self.mat))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SpdMatrix({self.mat!r})"


def sqrt_spd(p: SpdMatrix) -> SpdMatrix:
    """Principal square root S with S @ S = P."""
    return SpdMatrix(p.map_eigenvalues(np.sqrt))


def inv_spd(p: SpdMatrix) -> SpdMatrix:
    return SpdMatrix(p.map_eigenvalues(lambda w: 1.0 / w))


def inv_sqrt_spd(p: SpdMatrix) -> SpdMatrix:
    return SpdMatrix(p.map_eigenvalues(lambda w: 1.0 / np.sqrt(w)))


def expm(a, t: float = 1.0) -> np.ndarray:
    """Matrix exponential of A*t."""
    m = as_square(a, "exponent matrix")
    if not np.isfinite(t):
        raise ValidationError("time must be finite")
    out = scipy.linalg.expm(m * t)
    if not np.all(np.isfinite(out)):
        raise NumericFailure("matrix exponential overflowed")
    return out


def spectral_abscissa(a) -> float:
    """Largest real part over the eigenvalues of A."""
    m = as_square(a)
    return float(np.max(np.linalg.eigvals(m).real))


def require_hurwitz(a, name: str = "drift matrix") -> np.ndarray:
    m = as_square(a, name)
    alpha = spectral_abscissa(m)
    if alpha >= 0.0:
        raise StabilityError(f"{name} is not Hurwitz: spectral abscissa {alpha:.3e}")
    return m


def lyapunov_solve(a, qrhs) -> np.ndarray:
    """Solve A X + X A^T + Q = 0 for symmetric X.

    Vectorizes into (I (x) A + A (x) I) vec(X) = -vec(Q); A must be Hurwitz
    and Q positive semidefinite. Returns a plain symmetric array (positive
    definite exactly when (A, Q^(1/2)) is controllable).
    """
    m = require_hurwitz(a, "A")
    q = symmetrize(qrhs, "Qrhs")
    if q.shape != m.shape:
        raise ValidationError(f"shape mismatch: A {m.shape} vs Qrhs {q.shape}")
    wq = np.linalg.eigvalsh(q)
    if wq[0] < -SYMMETRY_RTOL * (1.0 + abs(wq[-1])):
        raise ValidationError(f"Qrhs is not positive semidefinite: min eig {wq[0]:.3e}")
    n = m.shape[0]
    eye = np.eye(n)
    op = np.kron(eye, m) + np.kron(m, eye)
    try:
        x = np.linalg.solve(op, -q.reshape(-1))
    except np.linalg.LinAlgError as exc:
        raise NumericFailure(f"Kronecker system is singular: {exc}") from exc
    sol = x.reshape(n, n)
    return 0.5 * (sol + sol.T)


def quadratic_matrix_solve(c: float, rhs: SpdMatrix) -> SpdMatrix:
    """Unique SPD solution Z of Z^2 + c Z - c Rhs = 0, c > 0.

    Closed form Z = (c/2)(-I + (I + (4/c) Rhs)^(1/2)), evaluated on the
    eigenbasis of Rhs so Z commutes with Rhs exactly.
    """
    if not (np.isfinite(c) and c > 0.0):
        raise ValidationError(f"coefficient must be a positive finite scalar, got {c}")
    z = rhs.map_eigenvalues(lambda w: 0.5 * c * (np.sqrt(1.0 + 4.0 * w / c) - 1.0))
    return SpdMatrix(z)


def sym_skew_split(a) -> tuple[np.ndarray, np.ndarray]:
    """Split A into (symmetric, antisymmetric) parts summing back to A."""
    m = as_square(a)
    sym = 0.5 * (m + m.T)
    return sym, m - sym
