"""Dense small-matrix primitives used by every other module.

Symmetric matrix functions go through eigendecompositions, the Lyapunov
solver through Kronecker vectorization, and the SPD quadratic matrix
equation through its closed form. Everything targets small dense matrices
(n up to ~16); nothing here is tuned for scale. `expm` of a zero exponent is
I without SciPy; `scipy.linalg` loads on the first non-zero exponent.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    DimensionError,
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

# Below this magnitude M + M^T and M - M^T cannot overflow.
_HALF_MAX = 0.5 * float(np.finfo(float).max)

_EIGENVECTORS_1X1 = np.ones((1, 1))
_EIGENVECTORS_1X1.setflags(write=False)


def require_positive(x, name: str, zero_ok: bool = False) -> float:
    """x as a float, rejecting non-finite values and x <= 0 (x < 0 when zero_ok)."""
    if not (math.isfinite(x) and (x > 0.0 or (zero_ok and x == 0.0))):
        kind = "nonnegative" if zero_ok else "positive"
        raise ValidationError(f"{name} must be {kind} and finite, got {x}")
    return float(x)


def require_same_dim(what: str, dim: int, *others: int) -> int:
    """dim, after checking that every other dimension equals it."""
    for other in others:
        if other != dim:
            dims = " vs ".join(str(d) for d in (dim, *others))
            raise DimensionError(f"{what} dimensions disagree: {dims}")
    return dim


def frozen(a) -> np.ndarray:
    """A read-only copy of a, so no write through the caller's array reaches it."""
    a = np.array(a)
    a.flags.writeable = False
    return a


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D float array (a scalar becomes 1x1)."""
    m = np.asarray(a, dtype=float)
    if m.ndim == 0:
        m = m.reshape(1, 1)
    if m.ndim != 2:
        raise DimensionError(f"{name} must be a matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValidationError(f"{name} has non-finite entries")
    return m


def as_square(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite, non-empty square float array (a scalar becomes 1x1)."""
    m = as_matrix(a, name)
    if m.shape[0] != m.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {m.shape}")
    if m.size == 0:
        raise DimensionError(f"{name} must be non-empty, got shape {m.shape}")
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


def _asymmetry(m: np.ndarray, scale: float) -> float:
    """max|M - M^T| for a finite non-empty square M with max|M| = scale; inf, with no
    floating-point warning, where the difference overflows."""
    if scale < _HALF_MAX:
        return np.abs(m - m.T).max()
    return 2.0 * max_abs(0.5 * m - 0.5 * m.T)


def is_symmetric(m: np.ndarray) -> bool:
    """max|M - M^T| <= SYMMETRY_RTOL (1 + max|M|), for a square array M."""
    scale = max_abs(m)
    return _asymmetry(m, scale) <= SYMMETRY_RTOL * (1.0 + scale)


def is_isotropic(m: np.ndarray, level: float) -> bool:
    """max|M - level I| <= SYMMETRY_RTOL (1 + |level|), for a square array M."""
    return max_abs(m - level * np.eye(m.shape[0])) <= SYMMETRY_RTOL * (1.0 + abs(level))


def symmetrize(a, name: str = "matrix") -> np.ndarray:
    """Return (A + A^T)/2, rejecting inputs beyond the asymmetry tolerance."""
    m = np.asarray(a, dtype=float)
    scale = np.abs(m).max() if m.size else math.nan  # nan or inf if an entry is not finite
    if not (scale < _HALF_MAX and m.ndim == 2 and m.shape[0] == m.shape[1]):
        m = as_square(m, name)  # names the fault, or makes a scalar 1x1
    asymmetry = _asymmetry(m, scale)
    if asymmetry > SYMMETRY_RTOL * (1.0 + scale):
        raise ValidationError(f"{name} is not symmetric: asymmetry {asymmetry:.3e}")
    if scale < _HALF_MAX:
        return 0.5 * (m + m.T)
    with np.errstate(over="ignore"):  # inf where M + M^T overflows, as the 1x1 path
        return 0.5 * (m + m.T)


class SpdMatrix:
    """Symmetric positive-definite matrix with a cached eigendecomposition.

    Construction accepts a matrix P within SYMMETRY_RTOL (1 + max|P|) of
    symmetric and stores (P + P^T)/2, so callers pass raw products; it
    rejects eigenvalues below the relative floor. Instances are immutable;
    the cached factors back all matrix-function evaluations.
    """

    __slots__ = ("mat", "eigenvalues", "eigenvectors")

    def __init__(self, mat):
        m = np.asarray(mat, dtype=float)
        if m.ndim == 0 or m.shape == (1, 1):  # scalar fast path: symmetrize's checks in one pass
            x = m.item()
            if not math.isfinite(x):
                raise ValidationError("SPD matrix has non-finite entries")
            x = 0.5 * (x + x)  # as symmetrize: inf where x + x overflows
            _check_eigenvalues(math.isfinite(x), x, x)
            m = np.array([[x]])
            m.setflags(write=False)  # and so its view m[0]
            self.mat, self.eigenvalues, self.eigenvectors = m, m[0], _EIGENVECTORS_1X1
            return
        m = symmetrize(m, "SPD matrix")
        try:
            w, v = np.linalg.eigh(m)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - eigh on finite input
            raise NumericFailure(f"eigendecomposition failed: {exc}") from exc
        self._freeze(m, w, v)

    def _freeze(self, m: np.ndarray, w: np.ndarray, v: np.ndarray) -> None:
        _check_eigenvalues(np.isfinite(w).all(), w[0], w[-1])
        for arr in (m, w, v):
            arr.setflags(write=False)
        self.mat, self.eigenvalues, self.eigenvectors = m, w, v

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def map_eigenvalues(self, fn) -> np.ndarray:
        """V diag(fn(w)) V^T as a plain symmetric array."""
        return _compose(fn(self.eigenvalues), self.eigenvectors)

    def _map(self, fn) -> SpdMatrix:
        """fn(P) with the eigenpairs (fn(w), V) for a monotone fn: checks fn(w), runs no eigh."""
        w, v = fn(self.eigenvalues), self.eigenvectors
        out, mat = SpdMatrix.__new__(SpdMatrix), _compose(w, v)
        if w[0] > w[-1]:  # decreasing fn: keep the eigenvalues ascending
            w, v = w[::-1], v[:, ::-1]
        out._freeze(mat, w, v)
        return out

    def logdet(self) -> float:
        return float(np.sum(np.log(self.eigenvalues)))

    def trace(self) -> float:
        return float(np.trace(self.mat))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SpdMatrix({self.mat!r})"


def _check_eigenvalues(finite: bool, lo: float, hi: float) -> None:
    if not finite:
        raise NumericFailure("eigendecomposition produced non-finite eigenvalues")
    if lo <= POSITIVITY_RTOL * (1.0 + hi):
        raise SingularityError(
            "matrix is not positive definite within the floor: "
            f"eigenvalues in [{lo:.3e}, {hi:.3e}]"
        )


def _compose(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    out = (v * w) @ v.T
    return 0.5 * (out + out.T)


def sqrt_spd(p: SpdMatrix) -> SpdMatrix:
    """Principal square root S with S @ S = P."""
    return p._map(np.sqrt)


def inv_spd(p: SpdMatrix) -> SpdMatrix:
    return p._map(lambda w: 1.0 / w)


def inv_sqrt_spd(p: SpdMatrix) -> SpdMatrix:
    return p._map(lambda w: 1.0 / np.sqrt(w))


def expm(a, t: float = 1.0) -> np.ndarray:
    """Matrix exponential of A*t: a fresh I, without SciPy, when A*t is all
    zero (e^0 = I exactly); scipy.linalg loads on the first non-zero A*t."""
    m = as_square(a, "exponent matrix")
    if not np.isfinite(t):
        raise ValidationError("time must be finite")
    mt = m * t
    if not mt.any():
        return np.eye(m.shape[0])
    import scipy.linalg  # about 0.25 s and 28 MiB to load: a scalar run never needs it
    out = scipy.linalg.expm(mt)
    if not np.all(np.isfinite(out)):
        raise NumericFailure("matrix exponential overflowed")
    return out


def solve(a, b, failure: str) -> np.ndarray:
    """np.linalg.solve(a, b); a singular a raises NumericFailure(f"{failure}: {exc}")."""
    try:
        return np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise NumericFailure(f"{failure}: {exc}") from exc


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
    require_same_dim("A and Qrhs", m.shape[0], q.shape[0])
    wq = np.linalg.eigvalsh(q)
    if wq[0] < -SYMMETRY_RTOL * (1.0 + abs(wq[-1])):
        raise ValidationError(f"Qrhs is not positive semidefinite: min eig {wq[0]:.3e}")
    n = m.shape[0]
    eye = np.eye(n)
    op = np.kron(eye, m) + np.kron(m, eye)
    sol = solve(op, -q.reshape(-1), "Kronecker system is singular").reshape(n, n)
    return 0.5 * (sol + sol.T)


def quadratic_matrix_solve(c: float, rhs: SpdMatrix) -> SpdMatrix:
    """Unique SPD solution Z of Z^2 + c Z - c Rhs = 0, c > 0.

    Closed form Z = (c/2)(-I + (I + (4/c) Rhs)^(1/2)), evaluated on the
    eigenbasis of Rhs so Z commutes with Rhs exactly.
    """
    require_positive(c, "coefficient")
    return rhs._map(lambda w: 0.5 * c * (np.sqrt(1.0 + 4.0 * w / c) - 1.0))


def sym_skew_split(a) -> tuple[np.ndarray, np.ndarray]:
    """Split A into (symmetric, antisymmetric) parts summing back to A."""
    m = as_square(a)
    sym = 0.5 * (m + m.T)
    return sym, m - sym
