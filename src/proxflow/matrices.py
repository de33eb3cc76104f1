"""Dense small-matrix primitives used by every other module.

Symmetric matrix functions go through eigendecompositions, the Lyapunov
solver through Kronecker vectorization, and the SPD quadratic matrix
equation through its closed form. Everything targets small dense matrices
(n up to ~16); nothing here is tuned for scale. `expm` of a zero exponent is
I without SciPy; `scipy.linalg` loads on the first non-zero exponent.
"""

from __future__ import annotations

import math
from itertools import accumulate

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

_FLOAT = np.dtype(float)
_FLOAT_MAX = float(np.finfo(float).max)
# Below this magnitude M + M^T and M - M^T cannot overflow.
_HALF_MAX = 0.5 * _FLOAT_MAX
_REALS = (float, int, np.floating, np.integer)
_SIGNS = {False: "positive", True: "nonnegative"}  # what x must be, by zero_ok
_RANKS = {1: "a vector", 2: "a matrix", 3: "a 3-D array"}  # what as_array calls a rank

_EIGENVECTORS_1X1 = np.ones((1, 1))
_EIGENVECTORS_1X1.setflags(write=False)


def _real(x) -> bool:
    """Whether x is an int or a float, numpy's included; a bool is not a number."""
    return isinstance(x, _REALS) and not isinstance(x, bool)


def _finite(x) -> bool:
    """Whether x is a finite number in float range; a bool is not a number."""
    return _real(x) and -_FLOAT_MAX <= x <= _FLOAT_MAX


def _shown(x) -> str:
    """x as a refusal shows it: a number, numpy's included, as printed, anything
    else by repr, so the string "0.1" reads '0.1', not as the number 0.1."""
    return str(x) if isinstance(x, (int, float, np.number, np.bool_)) else repr(x)


def require_positive(x, name: str, zero_ok: bool = False) -> float:
    """x as a float: a _finite number > 0 (>= 0 when zero_ok)."""
    if not (_finite(x) and (x > 0 or (zero_ok and x == 0))):
        raise ValidationError(f"{name} must be {_SIGNS[zero_ok]} and finite, got {_shown(x)}")
    return float(x)


def require_count(x, name: str, zero_ok: bool = False) -> int:
    """x as an int: a whole _finite number >= 1 (>= 0 when zero_ok)."""
    if not (_finite(x) and float(x).is_integer() and (x >= 1 or (zero_ok and x == 0))):
        raise ValidationError(f"{name} must be a {_SIGNS[zero_ok]} integer, got {_shown(x)}")
    return int(x)


def require_choice(x, choices: tuple, what: str) -> str:
    """x, one of the strings choices, or ValidationError("unknown <what> <x!r>: must be
    one of <choices>")."""
    if not (isinstance(x, str) and x in choices):
        raise ValidationError(f"unknown {what} {x!r}: must be one of {', '.join(choices)}")
    return x


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


def as_array(x, name: str, ndims: tuple, finite: bool = True) -> np.ndarray:
    """x as a float array of a rank in ndims, with finite entries unless finite=False
    (the caller checks them): the one rule for an array from outside. An entry that is
    not an int or a float (a bool, text, a ragged row), or an int beyond float range,
    raises ValidationError naming it, a rank outside ndims DimensionError."""
    try:  # a float64 array as it is, another int or float one whole, anything else by entry
        a = x
        if not (isinstance(x, np.ndarray) and x.dtype is _FLOAT):
            if not (isinstance(x, np.ndarray) and x.dtype.kind in "iuf"):
                x = np.asarray(x, object)
                if not all(_real(e) for e in x.flat):
                    raise TypeError
            a = x.astype(float)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{name} must be an array of real numbers") from None
    if a.ndim not in ndims:
        ranks = " or ".join(_RANKS[k] for k in ndims if k)
        raise DimensionError(f"{name} must be {ranks}, got shape {a.shape}")
    if finite and not all_finite(a):
        raise ValidationError(f"{name} has non-finite entries")
    return a


def all_finite(a: np.ndarray) -> bool:
    """Whether every entry of the float array a is finite. One entry, as a 1 x 1
    covariance or a one-path scalar mean on every filter step, is a float check,
    20x a reduction's speed."""
    return math.isfinite(a.item()) if a.size == 1 else np.isfinite(a).all()


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """as_array of rank 2; a scalar becomes 1x1."""
    m = as_array(a, name, (0, 2))
    return m.reshape(1, 1) if m.ndim == 0 else m


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


def float_path(step, x: float, inputs: list) -> list | None:
    """x, then x <- step(x, u) per input u, as Python floats; None if the last
    is not finite. A float that overflows runs to inf or nan and no later + or
    * makes it finite again, so only the last value is checked: a caller whose
    path is None reruns its array loop, which raises."""
    path = list(accumulate(inputs, step, initial=x))
    return path if math.isfinite(path[-1]) else None


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


def symmetrize(a, name: str) -> np.ndarray:
    """Return (A + A^T)/2, rejecting inputs beyond the asymmetry tolerance."""
    m = as_array(a, name, (0, 2), finite=False)
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
    """Symmetric positive-definite matrix with its eigendecomposition on demand.

    Construction accepts a matrix P within SYMMETRY_RTOL (1 + max|P|) of
    symmetric and stores (P + P^T)/2, so callers pass raw products; it
    rejects eigenvalues below the relative floor, which it reads with
    eigvalsh. The eigenpairs (eigenvalues ascending, eigenvectors as
    columns) are np.linalg.eigh of the stored matrix, run the first time
    either is read: a covariance that is only stepped, solved with or
    multiplied never pays for its eigenvectors. A matrix function (_map)
    holds its eigenpairs from the start, and so does a 1 x 1 matrix, which
    is checked and held as the float 0.5 (x + x) (_freeze_scalar). Instances
    are immutable, and the eigenpairs back all matrix-function evaluations.
    Every refusal starts with name, the matrix the caller built.
    """

    __slots__ = ("mat", "_eig")

    def __init__(self, mat, name: str = "SPD matrix"):
        if type(mat) is float and math.isfinite(mat):  # a 1 x 1 step's float: no array to read
            self._freeze_scalar(mat, name)
            return
        m = as_array(mat, name, (0, 2), finite=False)  # symmetrize's max|M| checks
        if m.size == 1 and math.isfinite(x := m.item()):  # scalar fast path: checks in one pass
            self._freeze_scalar(x, name)
            return
        m = symmetrize(m, name)
        try:
            w = np.linalg.eigvalsh(m)  # nan or no convergence where (M + M^T)/2 overflowed
        except np.linalg.LinAlgError as exc:
            raise NumericFailure(f"{name}: eigendecomposition failed: {exc}") from exc
        _check_eigenvalues(np.isfinite(w).all(), w[0], w[-1], name)
        m.setflags(write=False)
        self.mat, self._eig = m, None

    def _freeze_scalar(self, x: float, name: str) -> None:
        """Hold [[0.5 (x + x)]], symmetrized as symmetrize does (inf where x + x
        overflows), after the finite and floor checks; its eigenpair is (that
        float, 1), read-only."""
        x = 0.5 * (x + x)
        _check_eigenvalues(math.isfinite(x), x, x, name)
        m = np.array([[x]])
        m.setflags(write=False)  # and so its view m[0]
        self.mat, self._eig = m, (m[0], _EIGENVECTORS_1X1)

    def _eigenpairs(self) -> tuple[np.ndarray, np.ndarray]:
        if self._eig is None:
            w, v = np.linalg.eigh(self.mat)  # of a matrix that passed the floor: finite
            w.setflags(write=False)
            v.setflags(write=False)
            self._eig = (w, v)
        return self._eig

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._eigenpairs()[0]

    @property
    def eigenvectors(self) -> np.ndarray:
        return self._eigenpairs()[1]

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def map_eigenvalues(self, fn) -> np.ndarray:
        """V diag(fn(w)) V^T as a plain symmetric array."""
        return _compose(fn(self.eigenvalues), self.eigenvectors)

    def _map(self, fn, name: str = "matrix") -> SpdMatrix:
        """fn(P) with the eigenpairs (fn(w), V) for a monotone fn: checks fn(w) as the matrix
        name, runs no eigh. At 1 x 1, _compose's (1 w) 1 and 0.5 (x + x) are exact below
        overflow, so fn(P) holds the float fn(w)."""
        w, v = self._eigenpairs()
        w = fn(w)
        mat = _compose(w, v)
        if w[0] > w[-1]:  # decreasing fn: keep the eigenvalues ascending
            w, v = w[::-1], v[:, ::-1]
        _check_eigenvalues(np.isfinite(w).all(), w[0], w[-1], name)
        for arr in (mat, w, v):
            arr.setflags(write=False)
        out = SpdMatrix.__new__(SpdMatrix)
        out.mat, out._eig = mat, (w, v)
        return out

    def logdet(self) -> float:
        return float(np.sum(np.log(self.eigenvalues)))

    def trace(self) -> float:
        return float(np.trace(self.mat))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SpdMatrix({self.mat!r})"


def _check_eigenvalues(finite: bool, lo: float, hi: float, name: str) -> None:
    """Refuse eigenvalues in [lo, hi] of the matrix name that are not finite
    (NumericFailure) or whose smallest is not above POSITIVITY_RTOL (1 + largest)
    (SingularityError)."""
    if not finite:
        raise NumericFailure(f"{name}: eigendecomposition produced non-finite eigenvalues")
    if lo <= POSITIVITY_RTOL * (1.0 + hi):
        raise SingularityError(
            f"{name} is not positive definite within the floor: "
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
    if not _finite(t):
        raise ValidationError("time must be finite")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        mt = m * t
        if not mt.any():
            return np.eye(m.shape[0])
        import scipy.linalg  # about 0.25 s and 28 MiB to load: a scalar run never needs it
        out = scipy.linalg.expm(mt)
    if not np.isfinite(out).all():
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


def require_hurwitz(a, name: str) -> np.ndarray:
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
    eigenbasis of Rhs so Z commutes with Rhs exactly. A Z that _map refuses
    (below the floor or not finite) names c.
    """
    require_positive(c, "coefficient")
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan, which _map refuses
        return rhs._map(lambda w: 0.5 * c * (np.sqrt(1.0 + 4.0 * w / c) - 1.0),
                        f"quadratic matrix solve at coefficient {c}")


def sym_skew_split(a) -> tuple[np.ndarray, np.ndarray]:
    """Split A into (symmetric, antisymmetric) parts summing back to A."""
    m = as_square(a)
    with np.errstate(over="ignore"):  # inf where A + A^T overflows, as in symmetrize
        sym = 0.5 * (m + m.T)
        return sym, m - sym
