"""Reference solutions the recursions are tested against.

Closed-form/ODE propagation of the exact mean and covariance, fixed-substep
integration of the optimal filter and of the static-gain observer, and a
brute-force numeric minimizer for the three proximal objectives. These are
deliberately independent implementations: the brute-force minimizer never
calls the closed-form steps it is used to check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericFailure, OracleFailure, ValidationError, named_failures
from .gaussians import (
    LOG_TWO_PI,
    FilterRun,
    Gaussian,
    as_vectors,
    batch_prior,
    free_energy,
    kl_gaussian,
    phi_expectation,
    w2_gaussian,
)
from .matrices import (
    SpdMatrix,
    as_array,
    as_matrix,
    expm,
    inv_spd,
    is_isotropic,
    is_symmetric,
    matvec,
    require_choice,
    require_positive,
    require_same_dim,
)
from .propagation import MAX_STEPS, LinearSystem

REFERENCE_SUBSTEPS = 20  # the fewest substeps per data interval of a reference run
# Radius of a left half-disc inside RK4's stability region: |R(z)| <= 0.873 on its arc.
RK4_STABLE = 2.5
# The most RK4 steps one integral may take: the largest non-stiff reference a config can ask for.
RK4_MAX_STEPS = REFERENCE_SUBSTEPS * MAX_STEPS


def rk4_step(f, y, dt: float):
    k1 = f(y)
    k2 = f(y + 0.5 * dt * k1)
    k3 = f(y + 0.5 * dt * k2)
    k4 = f(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def exact_mean(sys: LinearSystem, mu0, t: float) -> np.ndarray:
    """Mean of the state at time t: e^(A t) mu0, for one mean (n,) or a
    batch (S, n)."""
    mu = as_vectors(mu0, dim=sys.dim, name="initial mean")
    require_positive(t, "time", zero_ok=True)
    if t == 0.0:
        return mu.copy()
    with named_failures(lambda: f"exact mean at t={t}"):
        phi = expm(sys.a, t)
    return matvec(phi, mu)


def _isotropic_level(sys: LinearSystem) -> float | None:
    """Return q with B B^T = q I if the noise is isotropic, else None."""
    bbt = sys.b @ sys.b.T
    q = float(np.trace(bbt)) / sys.dim
    return q if is_isotropic(bbt, q) else None


def exact_cov(
    sys: LinearSystem, p0: SpdMatrix, t: float, substep: float | None = None
) -> SpdMatrix:
    """Covariance of the state at time t.

    For a symmetric drift -Gamma with isotropic noise B B^T = q I the
    closed form is used; otherwise the covariance ODE is integrated with
    fixed-substep RK4 (default substep min(1e-3, t/10)).
    """
    require_same_dim("covariance and system", sys.dim, p0.dim)
    require_positive(t, "time", zero_ok=True)
    if substep is not None:
        require_positive(substep, "substep")
    if t == 0.0:
        return p0
    iso = _isotropic_level(sys)
    if is_symmetric(sys.a) and iso is not None:
        with named_failures(lambda: "exact covariance"):
            return _closed_form_cov(sys, p0, t, iso)
    return _rk4_cov(sys, p0, t, substep or min(1e-3, t / 10.0))


def _closed_form_cov(sys: LinearSystem, p0: SpdMatrix, t: float, iso: float) -> SpdMatrix:
    """Gamma^-1 (I - e^(-2 Gamma t)) q + e^(-Gamma t) P0 e^(-Gamma t) for the
    symmetric drift -Gamma and isotropic noise B B^T = q I."""
    gamma = SpdMatrix(-sys.a)
    decay = gamma.map_eigenvalues(lambda w: np.exp(-w * t))
    settled = gamma.map_eigenvalues(lambda w: 2.0 * iso * (1.0 - np.exp(-2.0 * w * t)) / (2.0 * w))
    return SpdMatrix(settled + decay @ p0.mat @ decay)


def _riccati_rate(drift, forcing, info=None):
    """The stage rate of P' = F P + P F^T + 2 B B^T - P J P for drift F,
    forcing 2 B B^T and information J (None for none). F P is formed once,
    as P F^T = (F P)^T for the symmetric P."""
    def rate(p):
        fp = drift @ p
        stage = fp + fp.T + forcing
        return stage if info is None else stage - p @ info @ p

    return rate


def _rk4_count(drift, t: float, count: int, what: str, spans: int = 1) -> int:
    """Steps over a span t: count, or more if a step dt would put
    dt (lambda_i + lambda_j) of P' = F P + P F^T outside RK4's stable
    half-disc, with F = drift. An integral over that many spans whose
    total exceeds RK4_MAX_STEPS raises NumericFailure naming what, before
    its first step; a total past 10**15 is shown to 3 digits."""
    rho = float(np.max(np.abs(np.linalg.eigvals(drift))))
    count = max(count, 2.0 * rho * t / RK4_STABLE)  # a float: inf past the float range
    if count * spans <= RK4_MAX_STEPS:  # math.ceil refuses inf
        count = math.ceil(count)
    if count * spans > RK4_MAX_STEPS:
        total = math.ceil(count) * spans if count * spans <= 10**15 else f"{count * spans:.3g}"
        raise NumericFailure(
            f"{what} needs {total} RK4 steps, more than {RK4_MAX_STEPS} (rho(F) = {rho:.3g})"
        )
    return count


def _rk4_cov(sys: LinearSystem, p0: SpdMatrix, t: float, substep: float) -> SpdMatrix:
    """RK4 integral of the covariance ODE P' = A P + P A^T + 2 B B^T over
    [0, t] in ceil(t / substep) equal steps, or more where A is stiff, under
    one floating-point guard: a step that overflows raises NumericFailure
    naming it, and a result SpdMatrix refuses is named the exact covariance."""
    rate = _riccati_rate(sys.a, sys.diffusion())
    count = _rk4_count(sys.a, t, max(1, math.ceil(t / substep - 1e-12)), "exact covariance")
    p = p0.mat
    with named_failures(lambda: "exact covariance"):
        with named_failures(lambda: f"RK4 step {i + 1} of {count}"):
            for i in range(count):
                p = rk4_step(rate, p, t / count)
        return SpdMatrix(p)


def _observer_run(sys, meas, g0, dz, h, optimal: bool) -> FilterRun:
    """Shared input checks and substep loop of the two reference runs: the
    optimal filter (F = A, J = C^T R^-1 C) if optimal, else the static-gain
    observer (F = A - C^T R^-1 C, no J). Per substep (REFERENCE_SUBSTEPS per
    interval, more where F is stiff): an Euler mean step against the
    piecewise-constant data rate dz_k / h, with the gain P C^T R^-1 from the
    pre-step P if optimal, else C^T R^-1; an RK4 step of
    P' = F P + P F^T + 2 B B^T - P J P; symmetrization. Once a step and its
    symmetrization return P bit for bit, P and the gain are reused and only
    the mean is stepped: the step uses only +, * and matrix products, so it
    would return P at every later substep. The full substep count is still
    checked against RK4_MAX_STEPS before the first step. dz is (steps, m), or
    (S, steps, m) for S paths sharing the covariance path. The loops start
    from arrays, the ([S,] n) means batch_prior returns and P0's matrix, and
    build no Gaussian; one state and one sensor take _scalar_substeps, which
    gives _matrix_substeps' bits in Python floats. Each interval's mean is
    checked where the loop yields it, a one-seed float by math.isfinite and
    an array by np.isfinite, and a non-finite one is refused; the means are
    written into one ([S,] steps + 1, n) array after the loop. One SpdMatrix
    is built per distinct P the loop yields, so a settled P is built once
    and shared by the later intervals. Returns the steps + 1 states at the
    interval boundaries. A failing interval keeps its error class, as
    "<run> reference run failed at interval k: <cause>"."""
    mean0, dz = batch_prior(sys, meas, g0, dz)
    require_positive(h, "step size")
    ct_rinv = meas.c.T @ meas.rinv
    info = ct_rinv @ meas.c
    drift, info = (sys.a, info) if optimal else (sys.a - info, None)
    run = "Kalman-Bucy" if optimal else "Luenberger"
    substeps = _rk4_count(drift, h, REFERENCE_SUBSTEPS, f"{run} reference run", dz.shape[-2])
    loop = _scalar_substeps if meas.c.shape == (1, 1) else _matrix_substeps
    rows, covs, last = [], [g0.cov], None
    with named_failures(lambda: f"{run} reference run failed at interval {len(covs)}"):
        for mu, p in loop(sys, meas.c, ct_rinv, mean0, g0.cov.mat, dz, h, substeps, drift, info):
            if p is not last:
                cov, last = SpdMatrix(p), p
            if not (math.isfinite(mu) if isinstance(mu, float) else np.isfinite(mu).all()):
                raise ValidationError("mean has non-finite entries")
            rows.append(mu)
            covs.append(cov)
    means = np.empty((*dz.shape[:-2], dz.shape[-2] + 1, sys.dim))
    means[..., 0, :] = mean0
    means[..., 1:, :] = np.moveaxis(np.reshape(rows, (-1, *mean0.shape)), 0, -2)
    return FilterRun(means, tuple(covs))


def _matrix_substeps(sys, c, ct_rinv, mean0, p0, dz, h, substeps, drift, info):
    """_observer_run's loop from the ([S,] n) means mean0 and the n x n
    array p0, yielding (mean, P) per interval. Means are held as columns, so
    a batch does each seed's arithmetic as its one-path run does."""
    rate = _riccati_rate(drift, sys.diffusion(), info)
    dt = h / substeps
    mu = mean0[..., None]
    p = p0.copy()
    gain = ct_rinv
    settled = False
    for k in range(dz.shape[-2]):
        y = dz[..., k, :, None] / h
        for _ in range(substeps):
            if not settled and info is not None:
                gain = p @ ct_rinv
            mu = mu + dt * (sys.a @ mu + gain @ (y - c @ mu))
            if not settled:
                q = rk4_step(rate, p, dt)
                q = 0.5 * (q + q.T)
                settled = q.tobytes() == p.tobytes()
                p = q
        yield mu[..., 0], p


def _scalar_substeps(sys, c, ct_rinv, mean0, p0, dz, h, substeps, drift, info):
    """_matrix_substeps for one state and one sensor, with every 1 x 1
    matrix a Python float (P > 0, so settling is q == p). A 1 x 1 product
    is one rounded multiply, so each float op gives its matrix counterpart's
    value; numpy adds the product to +0.0, so only a zero's sign can differ.
    That sign never reaches a result: 2 B B^T and J come from matrix
    products, so the rate's sums give a -0.0 nowhere; a mean's step sums to
    -0.0 where the matrix loop has +0.0 only if a * mu is -0.0, which a
    Hurwitz A (a < 0) allows only for a +0.0 mean, and adding either zero
    leaves that +0.0. Symmetrizing, 0.5 (q + q), returns q below half the
    largest float, so it is left out. One seed's mean is a float too, and
    is yielded as one, and its increments are read once, as a float list;
    S > 1 means stay one numpy array, stepped per interval's (S, 1) data.
    Once P has settled, each later interval runs the bare mean substep,
    with the same operations in the same order. A float that overflows
    runs to inf or nan (no + or * brings it back) and is refused at its
    interval's end, where _observer_run checks the yielded mean."""
    f, w = drift.item(), sys.diffusion().item()
    j = None if info is None else info.item()
    a, c, ct_rinv = sys.a.item(), c.item(), ct_rinv.item()

    def rate(p):
        fp = f * p
        stage = fp + fp + w
        return stage if j is None else stage - p * j * p

    dt = h / substeps
    one = mean0.size == 1
    mu = mean0.item() if one else mean0
    data = iter(dz[..., 0].ravel().tolist() if one else np.moveaxis(dz, -2, 0))
    p = p0.item()
    gain = ct_rinv
    settled = False
    for d in data:
        y = d / h
        for _ in range(substeps):
            if not settled and j is not None:
                gain = p * ct_rinv
            mu = mu + dt * (a * mu + gain * (y - c * mu))
            if not settled:
                q = rk4_step(rate, p, dt)
                settled = q == p
                p = q
        yield mu, p
        if settled:
            break
    for d in data:  # P and the gain have settled: only the mean steps
        y = d / h
        for _ in range(substeps):
            mu = mu + dt * (a * mu + gain * (y - c * mu))
        yield mu, p


def kalman_bucy_run(sys: LinearSystem, meas, g0: Gaussian, dz, h: float) -> FilterRun:
    """Integrate the optimal continuous-time filter across the data intervals.

    Covariance follows the Riccati ODE
    P' = A P + P A^T + 2 B B^T - P C^T R^-1 C P; the mean uses the gain
    K = P C^T R^-1, formed once per distinct P: once an RK4 substep returns
    P bit for bit, P and K are reused for the rest of the run. C^T R^-1 C is
    formed once per run, not read from the measurement model, so the
    check shares no cached matrix with the update it checks. With one state
    and one sensor, P and K are Python floats, bit for bit the 1 x 1 matrix
    arithmetic, as is the mean of a one-seed run. Returns the run of states
    at the interval boundaries.
    """
    return _observer_run(sys, meas, g0, dz, h, optimal=True)


def luenberger_run(sys: LinearSystem, meas, g0: Gaussian, dz, h: float) -> FilterRun:
    """Integrate the static-gain observer with injection L = C^T R^-1.

    The covariance follows the Lyapunov ODE
    P' = (A - L C) P + P (A - L C)^T + 2 B B^T, decoupled from the gain.
    """
    return _observer_run(sys, meas, g0, dz, h, optimal=False)


KIND_JKO = "jko-free-energy"
KIND_LMMR = "lmmr-kl"
KIND_WFILTER = "wasserstein-filter"


@dataclass(frozen=True, eq=False)
class ProxObjective:
    """One proximal objective: distance-to-anchor term plus h times a functional.

    kind "jko-free-energy" needs (gamma, beta); "lmmr-kl" and
    "wasserstein-filter" need (c, r, y).
    """

    kind: str
    anchor: Gaussian
    gamma: SpdMatrix | None = None
    beta: float | None = None
    c: np.ndarray | None = None
    r: SpdMatrix | None = None
    y: np.ndarray | None = None

    def __post_init__(self):
        require_choice(self.kind, (KIND_JKO, KIND_LMMR, KIND_WFILTER), "objective kind")
        if self.kind == KIND_JKO:
            if self.gamma is None or self.beta is None:
                raise ValidationError("jko-free-energy objective needs gamma and beta")
            require_same_dim("anchor and potential", self.anchor.dim, self.gamma.dim)
            require_positive(self.beta, "beta")
        else:
            if self.c is None or self.r is None or self.y is None:
                raise ValidationError(f"{self.kind} objective needs c, r, and y")
            c = as_matrix(self.c, "c")
            y = as_array(self.y, "y", (1,))
            require_same_dim("anchor and observation matrix", self.anchor.dim, c.shape[1])
            require_same_dim("observation matrix, R and y", c.shape[0], self.r.dim, y.shape[0])
            object.__setattr__(self, "c", c)
            object.__setattr__(self, "y", y)


def prox_objective_value(obj: ProxObjective, g: Gaussian, h: float) -> float:
    """Evaluate the proximal objective at a candidate Gaussian."""
    require_positive(h, "step size", zero_ok=True)
    if obj.kind == KIND_JKO:
        return 0.5 * w2_gaussian(g, obj.anchor) ** 2 + h * free_energy(
            g, obj.gamma, obj.beta
        )
    misfit = phi_expectation(g, obj.c, inv_spd(obj.r), obj.y)
    if obj.kind == KIND_LMMR:
        return kl_gaussian(g, obj.anchor) + h * misfit
    return 0.5 * w2_gaussian(g, obj.anchor) ** 2 + h * misfit


# Brute-force search settings, read at call time.
DESCENT_MAX_ITERATIONS = 5000
DESCENT_GRADIENT_TOL = 1e-7


def _scalar_objective(obj: ProxObjective, h: float, mu: float, p: float) -> float:
    """The scalar objective at (mu, p).

    Written against the scalar closed forms directly so the search stays
    independent of the matrix-valued implementations it is used to check.
    """
    mu0 = float(obj.anchor.mean[0])
    p0 = float(obj.anchor.cov.mat[0, 0])
    if obj.kind == KIND_JKO:
        gam = float(obj.gamma.mat[0, 0])
        w2sq = (mu - mu0) ** 2 + (math.sqrt(p) - math.sqrt(p0)) ** 2
        energy = 0.5 * (gam * mu ** 2 + gam * p)
        entropy = -0.5 * (1.0 + LOG_TWO_PI + math.log(p))
        return 0.5 * w2sq + h * (energy + entropy / obj.beta)
    cc = float(obj.c[0, 0])
    rr = float(obj.r.mat[0, 0])
    yy = float(obj.y[0])
    misfit = 0.5 * ((yy - cc * mu) ** 2 / rr + cc * cc * p / rr)
    if obj.kind == KIND_LMMR:
        kl = 0.5 * (p / p0 + (mu0 - mu) ** 2 / p0 - 1.0 - math.log(p / p0))
        return kl + h * misfit
    w2sq = (mu - mu0) ** 2 + (math.sqrt(p) - math.sqrt(p0)) ** 2
    return 0.5 * w2sq + h * misfit


def _search(obj: ProxObjective, h: float) -> tuple[Gaussian, float]:
    """BFGS from the anchor over unconstrained coordinates: (mu, log p) on
    the scalar closed form for n = 1, (mu, log l11, l21, log l22) of the
    Cholesky factor L on prox_objective_value for n = 2."""
    import scipy.optimize  # about 0.75 s to import: a CLI start should not pay it

    if obj.anchor.dim == 1:
        def unpack(x):
            return x[:1], np.array([[math.exp(x[1])]])

        def value(x):
            try:
                return _scalar_objective(obj, h, float(x[0]), math.exp(x[1]))
            except (OverflowError, ValueError):  # p over- or underflowed: a step BFGS refuses
                return math.inf

        x0 = np.array([obj.anchor.mean[0], math.log(obj.anchor.cov.mat[0, 0])])
    else:
        def unpack(x):
            ell = np.array([[math.exp(x[2]), 0.0], [x[3], math.exp(x[4])]])
            return x[:2], ell @ ell.T

        def value(x):
            mean, cov = unpack(x)
            return prox_objective_value(obj, Gaussian(mean, SpdMatrix(cov)), h)

        ell = np.linalg.cholesky(obj.anchor.cov.mat)
        x0 = np.array([*obj.anchor.mean, math.log(ell[0, 0]), ell[1, 0], math.log(ell[1, 1])])
    with np.errstate(all="ignore"):  # SciPy steps past an inf or nan; a failed search is refused
        res = scipy.optimize.minimize(
            value, x0, method="BFGS", jac="3-point",
            options={"gtol": DESCENT_GRADIENT_TOL, "maxiter": DESCENT_MAX_ITERATIONS},
        )
    # A precision-loss stop at numeric noise is accepted if the gradient is small.
    stalled = res.status == 2 and np.max(np.abs(res.jac)) < 1e2 * DESCENT_GRADIENT_TOL
    if not (res.success or stalled):
        raise OracleFailure(f"brute-force search failed: {res.message}")
    mean, cov = unpack(res.x)
    return Gaussian(mean, SpdMatrix(cov)), float(res.fun)


def brute_force_prox(obj: ProxObjective, h: float) -> tuple[Gaussian, float]:
    """Numerically minimize the proximal objective over (mu, P), for n <= 2.

    One BFGS search with numeric gradients, from the anchor, stopping at
    max-abs gradient DESCENT_GRADIENT_TOL. Raises OracleFailure rather than
    returning a dubious minimizer, also where the objective overflows.
    """
    require_positive(h, "step size", zero_ok=True)
    if h == 0.0:
        return obj.anchor, 0.0
    if obj.anchor.dim > 2:
        raise ValidationError("brute-force search supports dimensions 1 and 2 only")
    return _search(obj, h)
