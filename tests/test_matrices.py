import contextlib
import math
import re
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from proxflow import (
    DimensionError,
    NumericFailure,
    ProxflowError,
    SingularityError,
    SpdMatrix,
    StabilityError,
    ValidationError,
    expm,
    inv_spd,
    inv_sqrt_spd,
    lyapunov_solve,
    quadratic_matrix_solve,
    sqrt_spd,
    sym_skew_split,
)
from proxflow import matrices
from proxflow.errors import named_failures
from proxflow.matrices import _HALF_MAX, as_square, is_isotropic, max_abs, symmetrize
from support import random_hurwitz, random_spd


class TestSpdMatrix:
    def test_symmetrizes_small_drift(self):
        m = np.array([[2.0, 1.0 + 1e-12], [1.0, 2.0]])
        p = SpdMatrix(m)
        assert max_abs(p.mat - p.mat.T) == 0.0

    def test_rejects_asymmetric(self):
        with pytest.raises(ValidationError):
            SpdMatrix(np.array([[2.0, 1.0], [0.0, 2.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(SingularityError):
            SpdMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_rejects_near_singular(self):
        with pytest.raises(SingularityError):
            SpdMatrix(np.diag([1.0, 1e-14]))

    def test_immutable(self):
        p = SpdMatrix(np.eye(2))
        with pytest.raises(ValueError):
            p.mat[0, 0] = 5.0

    @pytest.mark.parametrize(
        "entries,error,message",
        [
            ([[1e308, -1e308], [1e308, 1e308]], ValidationError,
             "SPD matrix is not symmetric: asymmetry inf"),
            # (M + M^T)/2 overflows although M is finite, as for [[1e308]]
            ([[1e308, 0.0], [0.0, 1e308]], NumericFailure,
             "eigendecomposition produced non-finite eigenvalues"),
        ],
        ids=["asymmetric", "symmetric"],
    )
    def test_overflowing_symmetry_checks_raise_without_warning(self, entries, error, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error) as exc:
                SpdMatrix(np.array(entries))
        assert type(exc.value) is error and str(exc.value) == message


_FLOOR = "matrix is not positive definite within the floor: eigenvalues in "


@pytest.mark.parametrize("shape", [(), (1,), (1, 1)])
@pytest.mark.parametrize(
    "value,error,message",
    [
        (math.nan, ValidationError, "SPD matrix has non-finite entries"),
        (math.inf, ValidationError, "SPD matrix has non-finite entries"),
        (-math.inf, ValidationError, "SPD matrix has non-finite entries"),
        (0.0, SingularityError, _FLOOR + "[0.000e+00, 0.000e+00]"),
        (-1.0, SingularityError, _FLOOR + "[-1.000e+00, -1.000e+00]"),
        (1e-13, SingularityError, _FLOOR + "[1.000e-13, 1.000e-13]"),
        # (M + M^T)/2 overflows although M is finite
        (1e308, NumericFailure, "eigendecomposition produced non-finite eigenvalues"),
    ],
    ids=["nan", "inf", "-inf", "zero", "negative", "1e-13", "1e308"],
)
def test_scalar_spd_errors(shape, value, error, message):
    """The one-pass 1x1 checks raise what the general path always raised; a
    1-element vector is not a matrix, whatever its value."""
    if shape == (1,):
        error, message = DimensionError, "SPD matrix must be a matrix, got shape (1,)"
    with pytest.raises(error) as exc:
        SpdMatrix(np.full(shape, value))
    assert type(exc.value) is error and str(exc.value) == message


@pytest.mark.parametrize("shape", [(), (1, 1)], ids=["shape0", "shape2"])
def test_scalar_spd_accepts(shape):
    p = SpdMatrix(np.full(shape, 2.5))
    for arr, want in ((p.mat, [[2.5]]), (p.eigenvalues, [2.5]), (p.eigenvectors, [[1.0]])):
        assert arr.tolist() == want and not arr.flags.writeable


_FACTORS = [
    (sqrt_spd, np.sqrt),
    (inv_spd, lambda w: 1.0 / w),
    (inv_sqrt_spd, lambda w: 1.0 / np.sqrt(w)),
    (lambda p: quadratic_matrix_solve(0.7, p),
     lambda w: 0.5 * 0.7 * (np.sqrt(1.0 + 4.0 * w / 0.7) - 1.0)),
]


@pytest.mark.parametrize("factor,fn", _FACTORS, ids=["sqrt", "inv", "inv_sqrt", "quadratic"])
def test_derived_factors_reuse_eigenpairs(factor, fn):
    """A factor built from its parent's eigenpairs has the matrix the old
    route (map_eigenvalues, then a fresh SpdMatrix) gave, bit for bit."""
    rng = np.random.default_rng(21)
    for n in range(1, 17):
        p = random_spd(rng, n)
        got = factor(p)
        assert np.array_equal(got.mat, SpdMatrix(p.map_eigenvalues(fn)).mat)
        w = got.eigenvalues
        assert np.all(w[:-1] <= w[1:]) and not w.flags.writeable
        assert not got.mat.flags.writeable and not got.eigenvectors.flags.writeable
        rebuilt = (got.eigenvectors * w) @ got.eigenvectors.T
        assert max_abs(rebuilt - got.mat) < 1e-12 * max_abs(got.mat)
        if n == 1:
            assert np.array_equal(w, fn(p.eigenvalues))


# 1x1 inputs from just above the positivity floor to 1e300, two per decade.
_SCALARS = [m * 10.0**k for k in range(-11, 300) for m in (1.0, 3.7)] + [1e300]


@pytest.mark.parametrize("factor,fn", _FACTORS, ids=["sqrt", "inv", "inv_sqrt", "quadratic"])
def test_derived_1x1_factors_match_a_fresh_spd_matrix_across_magnitudes(factor, fn):
    """At 1x1 a factor is one float fn(w): the matrix a fresh SpdMatrix of
    map_eigenvalues gives, bit for bit, or the same refusal where fn(w) is
    below the floor, with read-only arrays and the shared eigenvector."""
    for x in _SCALARS:
        p = SpdMatrix(x)
        try:
            want = SpdMatrix(p.map_eigenvalues(fn))
        except SingularityError as exc:
            with pytest.raises(SingularityError, match=f"^{re.escape(str(exc))}$"):
                factor(p)
            continue
        got = factor(p)
        assert got.mat.tobytes() == want.mat.tobytes(), x
        assert got.eigenvalues.tobytes() == fn(p.eigenvalues).tobytes(), x
        for arr in (got.mat, got.eigenvalues, got.eigenvectors):
            assert not arr.flags.writeable
        assert got.eigenvectors is matrices._EIGENVECTORS_1X1


# 1 x 1 values for the float fast paths: the smallest subnormal, below and
# above the floor, near the top of the float range (where x + x overflows),
# signed zeros, a negative number and the non-finite values.
_EDGES = [5e-324, 1e-300, 1.0, 1e300, 1e308, 0.0, -0.0, -1.0, math.nan, math.inf, -math.inf]


def _outcome(call):
    """The bits of call()'s matrix, eigenpair and read-only flags, or its refusal's class and text."""
    try:
        p = call()
    except ProxflowError as exc:
        return type(exc), str(exc)
    arrays = (p.mat, p.eigenvalues, p.eigenvectors)
    return tuple(a.tobytes() for a in arrays), tuple(a.flags.writeable for a in arrays)


@pytest.mark.parametrize("x", _EDGES, ids=repr)
def test_a_float_spd_matrix_is_the_one_of_its_1x1_array(x):
    """SpdMatrix(x) for a Python float skips the array read and has the 1x1
    array's bits, or its refusal, class and text."""
    want = _outcome(lambda: SpdMatrix(np.array([[x]])))
    assert _outcome(lambda: SpdMatrix(x)) == want
    assert _outcome(lambda: SpdMatrix(np.float64(x))) == want


def test_a_finite_float_spd_matrix_reads_no_array(monkeypatch):
    # A finite Python float goes straight to the scalar checks; a non-finite
    # float, a numpy float and a list are read as arrays, as before.
    read = []
    as_array = matrices.as_array
    monkeypatch.setattr(matrices, "as_array", lambda *args, **kw: read.append(args[0]) or
                        as_array(*args, **kw))

    def reads(x):
        read.clear()
        try:
            SpdMatrix(x)
        except ProxflowError:
            pass
        return len(read)

    assert [reads(x) for x in (2.5, 1e308, 0.0, -1.0)] == [0, 0, 0, 0]
    assert all(reads(x) for x in (math.nan, math.inf, np.float64(2.5), [[2.5]]))


def _array_map(p, fn):
    """The 1x1 map on numpy arrays: fn of the eigenvalue array, frozen as one float."""
    out = SpdMatrix.__new__(SpdMatrix)
    with np.errstate(over="ignore", invalid="ignore"):  # as quadratic_matrix_solve
        w = fn(p.eigenvalues)
    out._freeze_scalar(w.item())
    return out


_COEFFICIENTS = [5e-324, 1e-300, 1.0, 1e308]
_MAPS = [(sqrt_spd, np.sqrt), (inv_spd, lambda w: 1.0 / w),
         (inv_sqrt_spd, lambda w: 1.0 / np.sqrt(w))] + [
    ((lambda p, c=c: quadratic_matrix_solve(c, p)),
     (lambda w, c=c: 0.5 * c * (np.sqrt(1.0 + 4.0 * w / c) - 1.0))) for c in _COEFFICIENTS]


@pytest.mark.parametrize("guard", ["default", "run"])
@pytest.mark.parametrize("factor,fn", _MAPS, ids=["sqrt", "inv", "inv_sqrt"] + [
    f"quadratic-{c!r}" for c in _COEFFICIENTS])
def test_a_1x1_map_of_the_float_eigenvalue_is_the_arrays(factor, fn, guard):
    """At 1x1 a factor applies fn to the float eigenvalue: the bits of fn
    applied to the eigenvalue array, or its refusal (floor or non-finite),
    whether the SPD matrix came from a float or a 1x1 array and whether it
    runs under a run's guard, which raises floating-point faults."""
    for x in _EDGES + [1e-11, 3.7e150]:
        try:
            sources = [SpdMatrix(x), SpdMatrix(np.array([[x]]))]
        except ProxflowError:
            continue
        for p in sources:
            with named_failures(lambda: "run") if guard == "run" else contextlib.nullcontext():
                got = _outcome(lambda: factor(p))
            assert got == _outcome(lambda: _array_map(p, fn)), (x, got)


class TestSqrtSpd:
    def test_diagonal(self):
        s = sqrt_spd(SpdMatrix(np.diag([4.0, 9.0])))
        assert np.allclose(s.mat, np.diag([2.0, 3.0]), atol=1e-14)

    def test_identity(self):
        s = sqrt_spd(SpdMatrix(np.eye(3)))
        assert np.allclose(s.mat, np.eye(3), atol=1e-14)

    def test_residual_2x2(self):
        p = SpdMatrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
        s = sqrt_spd(p)
        assert max_abs(s.mat @ s.mat - p.mat) < 1e-12

    def test_round_trip_500_random(self):
        rng = np.random.default_rng(11)
        for trial in range(500):
            n = 1 + trial % 5
            p = random_spd(rng, n, eig_low=0.1, eig_high=5.0)
            s = sqrt_spd(p)
            assert max_abs(s.mat @ s.mat - p.mat) < 1e-10 * max_abs(p.mat)


class TestInvSpd:
    def test_scalar_reciprocal(self):
        assert inv_spd(SpdMatrix(2.0)).mat[0, 0] == pytest.approx(0.5)

    def test_identity(self):
        assert np.allclose(inv_spd(SpdMatrix(np.eye(2))).mat, np.eye(2), atol=1e-14)

    def test_multiply_back(self):
        rng = np.random.default_rng(5)
        p = random_spd(rng, 3)
        assert max_abs(inv_spd(p).mat @ p.mat - np.eye(3)) < 1e-10

    def test_inv_sqrt_consistent(self):
        rng = np.random.default_rng(6)
        p = random_spd(rng, 4)
        direct = inv_sqrt_spd(p).mat
        composed = inv_spd(sqrt_spd(p)).mat
        assert max_abs(direct - composed) < 1e-11


class TestExpm:
    def test_scalar(self):
        assert expm([[-1.0]], 1.0)[0, 0] == pytest.approx(math.exp(-1.0))

    def test_zero_matrix(self):
        for t in (0.0, 1.0, 7.5):
            assert expm(np.zeros((3, 3)), t).tobytes() == np.eye(3).tobytes()

    @pytest.mark.parametrize("n", range(1, 17))
    def test_zero_exponent_is_scipys_identity_byte_for_byte(self, n):
        # a zero exponent never reaches scipy.linalg.expm; the identity
        # returned instead must be the very bytes scipy would have given
        signs = np.where(np.add.outer(range(n), range(n)) % 2 == 0, 1.0, -1.0)
        nonzero = np.random.default_rng(n).normal(size=(n, n))
        cases = [(np.zeros((n, n)), t) for t in (1.0, -2.5, 0.0, -0.0)]
        cases += [(np.full((n, n), -0.0), 1.0), (signs * 0.0, 1.0), (signs * 0.0, -1.0)]
        cases += [(nonzero, 0.0), (nonzero, -0.0), (np.full((n, n), 1e-200), 1e-200)]
        for a, t in cases:
            want = scipy.linalg.expm(a * t)
            got = expm(a, t)
            assert (got.dtype, got.shape) == (want.dtype, want.shape)
            assert got.tobytes() == want.tobytes()

    def test_zero_exponent_gives_a_fresh_writeable_array(self):
        first = expm(np.zeros((2, 2)), 1.0)
        assert first.dtype == np.float64 and first.flags.writeable and first.flags.owndata
        first[0, 1] = 5.0
        second = expm(np.zeros((2, 2)), 1.0)
        assert second is not first and second.tobytes() == np.eye(2).tobytes()

    @pytest.mark.parametrize("a,t,message", [
        ([[math.nan]], 1.0, "exponent matrix has non-finite entries"),
        ([[0.0, math.inf], [0.0, 0.0]], 0.0, "exponent matrix has non-finite entries"),
        ([[0.0]], math.nan, "time must be finite"),
        ([[1.0]], -math.inf, "time must be finite"),
    ])
    def test_non_finite_input_still_rejected(self, a, t, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            expm(a, t)

    @pytest.mark.parametrize("a", [[[1e300]], [[1e300, 0.0], [0.0, 0.0]]])
    def test_overflowing_exponent_still_fails(self, a):
        with np.errstate(over="ignore"), pytest.raises(
                NumericFailure, match="^matrix exponential overflowed$"):
            expm(a, 1e300)
        with pytest.raises(NumericFailure, match="^step 4: matrix exponential overflowed$"):
            with named_failures(lambda: "step 4"):
                expm(a, 1e300)

    def test_rotation_orthogonal(self):
        skew = np.array([[0.0, 1.0], [-1.0, 0.0]])
        e = expm(skew, math.pi / 2)
        expected = np.array(
            [[math.cos(math.pi / 2), math.sin(math.pi / 2)],
             [-math.sin(math.pi / 2), math.cos(math.pi / 2)]]
        )
        assert max_abs(e - expected) < 1e-12
        assert max_abs(e @ e.T - np.eye(2)) < 1e-12

    def test_group_property(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            a = rng.normal(size=(3, 3))
            s, t = rng.uniform(0.1, 1.5, size=2)
            assert max_abs(expm(a, s) @ expm(a, t) - expm(a, s + t)) < 1e-9


class TestLyapunovSolve:
    def test_hand_solved_diagonal(self):
        x = lyapunov_solve(np.diag([-1.0, -2.0]), 2.0 * np.eye(2))
        assert np.allclose(x, np.diag([1.0, 0.5]), atol=1e-13)

    def test_zero_forcing(self):
        x = lyapunov_solve(-np.eye(3), np.zeros((3, 3)))
        assert max_abs(x) == 0.0

    def test_residual_random_hurwitz(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            n = rng.integers(1, 6)
            a = random_hurwitz(rng, n)
            q = random_spd(rng, n).mat
            x = lyapunov_solve(a, q)
            assert max_abs(a @ x + x @ a.T + q) < 1e-10
            assert max_abs(x - x.T) == 0.0

    def test_rejects_non_hurwitz(self):
        with pytest.raises(StabilityError):
            lyapunov_solve(np.eye(2), np.eye(2))

    def test_rejects_indefinite_forcing(self):
        with pytest.raises(ValidationError):
            lyapunov_solve(-np.eye(2), np.diag([1.0, -1.0]))


class TestQuadraticMatrixSolve:
    def test_scalar_closed_form(self):
        # c = 10, rhs = 1.1: Z = 5(-1 + sqrt(1.44)) = 1
        z = quadratic_matrix_solve(10.0, SpdMatrix(1.1))
        assert z.mat[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_identity_forced_by_substitution(self):
        for c in (0.5, 3.0, 40.0):
            rhs = SpdMatrix((1.0 + c) / c * np.eye(3))
            z = quadratic_matrix_solve(c, rhs)
            assert max_abs(z.mat - np.eye(3)) < 1e-12

    def test_diagonal_per_eigenvalue(self):
        z = quadratic_matrix_solve(10.0, SpdMatrix(np.diag([1.1, 0.61])))
        z2 = 5.0 * (-1.0 + math.sqrt(1.0 + 0.4 * 0.61))
        assert np.allclose(z.mat, np.diag([1.0, z2]), atol=1e-12)
        resid = z.mat @ z.mat + 10.0 * z.mat - 10.0 * np.diag([1.1, 0.61])
        assert max_abs(resid) < 1e-12

    def test_residual_and_spd_random(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            n = rng.integers(1, 6)
            c = rng.uniform(0.1, 50.0)
            rhs = random_spd(rng, n, eig_low=0.1, eig_high=5.0)
            z = quadratic_matrix_solve(c, rhs)
            assert z.eigenvalues[0] > 0
            resid = z.mat @ z.mat + c * z.mat - c * rhs.mat
            assert max_abs(resid) < 1e-10

    def test_rejects_nonpositive_coefficient(self):
        with pytest.raises(ValidationError):
            quadratic_matrix_solve(0.0, SpdMatrix(1.0))

    @given(
        c=st.floats(min_value=0.1, max_value=50.0),
        rhs=st.floats(min_value=0.05, max_value=10.0),
    )
    @settings(deadline=None)
    def test_matches_scalar_root(self, c, rhs):
        z = quadratic_matrix_solve(c, SpdMatrix(rhs)).mat[0, 0]
        root = (-c + math.sqrt(c * c + 4.0 * c * rhs)) / 2.0
        assert z == pytest.approx(root, rel=1e-12)


class TestSymSkewSplit:
    def test_symmetric_input(self):
        a = np.array([[1.0, 2.0], [2.0, -1.0]])
        sym, skew = sym_skew_split(a)
        assert np.array_equal(sym, a)
        assert max_abs(skew) == 0.0

    def test_antisymmetric_input(self):
        a = np.array([[0.0, 3.0], [-3.0, 0.0]])
        sym, skew = sym_skew_split(a)
        assert max_abs(sym) == 0.0
        assert np.array_equal(skew, a)

    def test_worked_example(self):
        a = np.array([[-1.0, 2.0], [0.0, -1.0]])
        sym, skew = sym_skew_split(a)
        assert np.allclose(sym, [[-1.0, 1.0], [1.0, -1.0]], atol=0)
        assert np.allclose(skew, [[0.0, 1.0], [-1.0, 0.0]], atol=0)

    @given(
        st.lists(
            st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
            min_size=9,
            max_size=9,
        )
    )
    @settings(deadline=None)
    def test_reconstruction_and_antisymmetry(self, entries):
        a = np.array(entries).reshape(3, 3)
        sym, skew = sym_skew_split(a)
        assert max_abs(sym + skew - a) <= 1e-15 * (1.0 + max_abs(a))
        assert max_abs(skew + skew.T) <= 1e-15 * (1.0 + max_abs(a))
        assert max_abs(sym - sym.T) == 0.0


class TestTraceInequality:
    def test_uhlmann_over_1000_pairs(self):
        rng = np.random.default_rng(41)
        worst = math.inf
        for trial in range(1000):
            n = 1 + trial % 5
            x = random_spd(rng, n)
            y = random_spd(rng, n)
            sx = sqrt_spd(x).mat
            inner = sqrt_spd(SpdMatrix(sx @ y.mat @ sx)).trace()
            slack = math.sqrt(x.trace() * y.trace()) - inner
            worst = min(worst, slack)
        assert worst >= -1e-12

    def test_equality_at_identity(self):
        n = 4
        x = SpdMatrix(np.eye(n))
        sx = sqrt_spd(x).mat
        inner = sqrt_spd(SpdMatrix(sx @ x.mat @ sx)).trace()
        assert abs(math.sqrt(x.trace() * x.trace()) - inner) < 1e-9


def test_symmetrize_tolerance_boundary():
    base = np.array([[1.0, 0.5], [0.5, 1.0]])
    drift = np.array([[0.0, 1e-12], [0.0, 0.0]])
    out = symmetrize(base + drift)
    assert max_abs(out - out.T) == 0.0
    with pytest.raises(ValidationError):
        symmetrize(base + np.array([[0.0, 1e-3], [0.0, 0.0]]))


def _recursion_products(n):
    """Near-symmetric covariances formed as the recursions form them: the
    first-order step P + h (A P + P A^T + D), the transport update
    S^-1 P S^-T from two solves, and the exact predict Phi P Phi^T + Q."""
    rng = np.random.default_rng(60 + n)
    a, p, d = random_hurwitz(rng, n), random_spd(rng, n).mat, random_spd(rng, n).mat
    s = np.eye(n) + 0.02 * random_spd(rng, n, 1e2, 1e6).mat
    phi = expm(a, 0.02)
    return [
        p + 0.02 * (a @ p + p @ a.T + d),
        np.linalg.solve(s, np.linalg.solve(s, p).T).T,
        phi @ p @ phi.T + d,
    ]


@pytest.mark.parametrize("n", [1, 2, 8, 16])
def test_spd_of_a_raw_product_equals_spd_of_its_symmetric_part(n):
    # The recursions pass their raw products: construction stores (M + M^T)/2,
    # and (S + S^T)/2 of a symmetric S is S bit for bit.
    products = _recursion_products(n)
    assert n == 1 or any(not np.array_equal(m, m.T) for m in products)
    for m in products:
        raw, sym = SpdMatrix(m), SpdMatrix(0.5 * (m + m.T))
        for field in ("mat", "eigenvalues", "eigenvectors"):
            assert np.array_equal(getattr(raw, field), getattr(sym, field))


@pytest.mark.parametrize("above", [False, True], ids=["below-half-max", "above-half-max"])
def test_symmetrize_checks_in_one_pass_below_half_max(above, monkeypatch):
    # Largest entry one step either side of _HALF_MAX; M + M^T stays finite.
    # Below it every check is one reduction over M; from it on, as_square
    # and the overflow-safe asymmetry run.
    x = np.nextafter(_HALF_MAX, math.inf if above else 0.0)
    m = np.array([[1.0, x], [x * (1.0 - 1e-12), 1.0]])
    names = []
    monkeypatch.setattr(matrices, "as_square", lambda a, name: names.append(name) or
                        as_square(a, name))
    out = symmetrize(m)
    assert names == (["matrix"] if above else [])
    assert np.array_equal(out, 0.5 * (m + m.T))
    assert np.array_equal(symmetrize(out), out)
    with pytest.raises(ValidationError, match="^matrix is not symmetric: asymmetry "):
        symmetrize(m * np.array([[1.0, 1.0], [1.0 - 1e-6, 1.0]]))


def test_spd_matrix_takes_its_finite_check_from_symmetrize(monkeypatch):
    # symmetrize's max|P| is the finite check: no np.isfinite pass reads P's n x n entries
    shapes = []
    isfinite = np.isfinite
    monkeypatch.setattr(np, "isfinite", lambda a, *args, **kw: shapes.append(np.shape(a)) or
                        isfinite(a, *args, **kw))
    SpdMatrix(np.eye(3))
    assert (3, 3) not in shapes
    with pytest.raises(ValidationError, match="^SPD matrix has non-finite entries$"):
        SpdMatrix(np.diag([1.0, math.nan, 1.0]))


def test_is_isotropic_tolerance_boundary():
    assert is_isotropic(2.0 * np.eye(2) + 1e-12, 2.0)
    assert not is_isotropic(2.0 * np.eye(2) + np.diag([1e-8, 0.0]), 2.0)
