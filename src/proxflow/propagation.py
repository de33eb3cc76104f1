"""Proximal time-stepping for the uncertainty propagation of a linear SDE.

The exact proximal step is available when the drift is symmetric and the
noise isotropic; the general Hurwitz/controllable case goes through the
equipartition and symmetrization coordinate changes and first-order
mean/covariance recursions.

The rotating frame of the symmetrization cancels from the mean recursion:
with S the skew part of the equipartition drift and F(t) = e^(-S t) A_sym
e^(S t), e^(S t) (I - h F(t))^-1 e^(S h) e^(-S t) = (I - h A_sym)^-1 e^(S h)
for every t. The general-case mean step is therefore one constant matrix per
(system, h), built once per run by general_mean_map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ControllabilityError,
    DimensionError,
    ModeMismatchError,
    SingularityError,
    StepSizeError,
    ValidationError,
    named_failures,
)
from .gaussians import Gaussian, as_vectors, require_finite_mean, require_single
from .matrices import (
    SpdMatrix,
    as_matrix,
    expm,
    frozen,
    inv_sqrt_spd,
    is_isotropic,
    is_symmetric,
    lyapunov_solve,
    matvec,
    max_abs,
    quadratic_matrix_solve,
    require_choice,
    require_count,
    require_hurwitz,
    require_positive,
    require_same_dim,
    sqrt_spd,
    sym_skew_split,
)

CONTROLLABILITY_RTOL = 1e-9
MAX_STEPS = 10**6  # the most steps a config may ask for at one step size
MAX_DIM = 16  # the largest state dimension: dense n x n matrices, desk scale only


def controllability_matrix(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    n = a.shape[0]
    blocks = [b]
    for _ in range(n - 1):
        blocks.append(a @ blocks[-1])
    return np.hstack(blocks)


class LinearSystem:
    """Stable linear diffusion dx = A x dt + sqrt(2) B dw.

    B carries the convention that the Fokker-Planck diffusion term is
    2 B B^T. A must be Hurwitz and (A, B) controllable.
    """

    __slots__ = ("a", "b", "_diffusion")

    def __init__(self, a, b):
        a = frozen(require_hurwitz(a, "A"))
        bm = frozen(as_matrix(b, "B"))
        if bm.shape[0] != a.shape[0] or bm.shape[1] == 0:
            raise DimensionError(
                f"B must have {a.shape[0]} rows and a column, got shape {bm.shape}"
            )
        with np.errstate(over="ignore", invalid="ignore"):  # inf or inf * 0 is rejected below
            diffusion = frozen(2.0 * bm @ bm.T)
        if not np.all(np.isfinite(diffusion)):
            raise ValidationError("B is too large: the diffusion 2 B B^T overflows")
        sv = np.linalg.svd(controllability_matrix(a, bm), compute_uv=False)
        rank = int(np.sum(sv > CONTROLLABILITY_RTOL * sv[0])) if sv[0] > 0 else 0
        if rank < a.shape[0]:
            raise ControllabilityError(
                f"(A, B) is not controllable: rank {rank} < {a.shape[0]}"
            )
        self.a = a
        self.b = bm
        self._diffusion = diffusion

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    @property
    def noise_dim(self) -> int:
        return self.b.shape[1]

    def diffusion(self) -> np.ndarray:
        """The Fokker-Planck forcing 2 B B^T (read-only, formed once)."""
        return self._diffusion


@dataclass(frozen=True)
class StepConfig:
    """Discretization contract: step size h, step count, inverse temperature."""

    h: float
    steps: int
    beta: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "h", require_positive(self.h, "step size"))
        object.__setattr__(self, "steps", require_count(self.steps, "step count", zero_ok=True))
        if self.beta is not None:
            require_positive(self.beta, "beta")


@dataclass(frozen=True, eq=False)
class EquipartitionFrame:
    """System rewritten so its stationary covariance is I; theta = tr(Pinf)/n is recorded."""

    pinf: SpdMatrix
    theta: float
    a_ep: np.ndarray
    b_ep: np.ndarray
    a_ep_sym: np.ndarray
    a_ep_skew: np.ndarray
    pinf_sqrt: np.ndarray
    pinf_inv_sqrt: np.ndarray


def make_equipartition(sys: LinearSystem) -> EquipartitionFrame:
    """Rescale by the stationary covariance so energy is equipartitioned.

    A_ep = Pinf^(-1/2) A Pinf^(1/2) and B_ep = Pinf^(-1/2) B satisfy
    A_ep + A_ep^T + 2 B_ep B_ep^T = 0: the rescaled pair's stationary
    covariance is I. theta = tr(Pinf)/n is recorded.
    """
    with named_failures(lambda: "stationary covariance of (A, B)"):
        pinf = SpdMatrix(lyapunov_solve(sys.a, sys.diffusion()))
        s = sqrt_spd(pinf).mat
        si = inv_sqrt_spd(pinf).mat
    theta = pinf.trace() / sys.dim
    a_ep = si @ sys.a @ s
    b_ep = si @ sys.b
    a_sym, a_skew = sym_skew_split(a_ep)
    return EquipartitionFrame(
        pinf=pinf,
        theta=theta,
        a_ep=a_ep,
        b_ep=b_ep,
        a_ep_sym=a_sym,
        a_ep_skew=a_skew,
        pinf_sqrt=s,
        pinf_inv_sqrt=si,
    )


def symmetrized_pair(frame: EquipartitionFrame, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Instantaneous symmetric drift and noise after the rotating change of frame.

    F(t) = e^(-skew t) A_ep_sym e^(skew t) and G(t) = e^(-skew t) B_ep; F stays
    symmetric negative semidefinite with G G^T = -F, so the stationary
    covariance I is preserved at every t.
    """
    rot = expm(-frame.a_ep_skew, t)
    f = rot @ frame.a_ep_sym @ rot.T
    return 0.5 * (f + f.T), rot @ frame.b_ep


def jko_step_symmetric(
    g_prev: Gaussian, gamma: SpdMatrix, beta: float, h: float
) -> Gaussian:
    """One exact proximal step for symmetric drift -Gamma and isotropic noise.

    Mean is the resolvent (I + h Gamma)^-1 mu0. Covariance comes from the
    SPD quadratic equation: with c = beta/h and
    Rhs = P0^(-1/2) (I + h Gamma) P0^(-1/2), solve Z^2 + c Z - c Rhs = 0 and
    set P = P0^(-1/2) Z^-2 P0^(-1/2). The Gibbs density N(0, (beta Gamma)^-1)
    is an exact fixed point.
    """
    require_single(g_prev)
    n = require_same_dim("state and potential", g_prev.dim, gamma.dim)
    beta, h = require_positive(beta, "beta"), require_positive(h, "step size")
    shifted = np.eye(n) + h * gamma.mat
    mean = np.linalg.solve(shifted, g_prev.mean)
    p0_isqrt = inv_sqrt_spd(g_prev.cov).mat
    rhs = SpdMatrix(p0_isqrt @ shifted @ p0_isqrt)
    z = quadratic_matrix_solve(require_positive(beta / h, "beta / step size"), rhs)
    cov = SpdMatrix(p0_isqrt @ z.map_eigenvalues(lambda w: w ** -2.0) @ p0_isqrt)
    return Gaussian._fresh(require_finite_mean(mean), cov)


def general_mean_map(frame: EquipartitionFrame, h: float) -> np.ndarray:
    """The general-case mean step M_h, the same matrix at every step of a run.

    The rotating-frame recursion mu_k = Pinf^(1/2) e^(S kh) (I - h F(kh))^-1
    e^(S h) e^(-S kh) Pinf^(-1/2) mu_{k-1}, with S the skew part and F the
    symmetrized drift, loses its rotation exactly: I - h F(kh) =
    e^(-S kh) (I - h A_sym) e^(S kh), and e^(S kh) commutes with e^(S h), so
    M_h = Pinf^(1/2) (I - h A_sym)^-1 e^(S h) Pinf^(-1/2). I - h A_sym >= I
    since A_sym <= 0, so the solve never degenerates. M_h agrees with
    I + h A to first order.
    """
    require_positive(h, "step size")
    n = frame.pinf.dim
    step = np.linalg.solve(np.eye(n) - h * frame.a_ep_sym, expm(frame.a_ep_skew, h))
    return frame.pinf_sqrt @ step @ frame.pinf_inv_sqrt


def jko_step_general_mean(mu_prev, mean_map: np.ndarray) -> np.ndarray:
    """Mean recursion for the general case: mu_k = M_h mu_{k-1}, with M_h
    from general_mean_map. mu_prev is one mean (n,) or a batch (S, n)."""
    return matvec(mean_map, as_vectors(mu_prev, dim=mean_map.shape[0], name="mean"))


def jko_step_general_cov(p_prev: SpdMatrix, sys: LinearSystem, h: float) -> SpdMatrix:
    """First-order covariance recursion P + h (A P + P A^T + 2 B B^T); at
    1 x 1 it is float arithmetic with the matrix expression's bits."""
    require_same_dim("covariance and system", sys.dim, p_prev.dim)
    require_positive(h, "step size", zero_ok=True)
    p = p_prev.mat
    try:
        if p_prev.dim == 1:
            x, a, d = p.item(), sys.a.item(), sys.diffusion().item()
            return SpdMatrix(x + h * (a * x + x * a + d))
        return SpdMatrix(p + h * (sys.a @ p + p @ sys.a.T + sys.diffusion()))
    except SingularityError as exc:
        raise StepSizeError(
            f"covariance step with h={h} lost positive-definiteness; use a smaller step"
        ) from exc


def general_step(sys: LinearSystem, h: float):
    """The general-first-order step g -> (M_h mu, P + h (A P + P A^T + 2 B B^T)),
    returned as (M_h, step) with M_h built once. propagate and the filter's
    "jko" predict both take it; the filter steps a settled run's means by M_h.
    step runs only under propagate's and run_filter's named_failures guard,
    which raises on every overflow, so M_h mu of a checked mean is finite and
    the step builds its Gaussian with no check of its own."""
    mean_map = general_mean_map(make_equipartition(sys), h)
    return mean_map, lambda g: Gaussian._fresh(
        jko_step_general_mean(g.mean, mean_map), jko_step_general_cov(g.cov, sys, h)
    )


MODE_SYMMETRIC = "symmetric-exact"
MODE_GENERAL = "general-first-order"


def propagate(
    sys: LinearSystem, g0: Gaussian, cfg: StepConfig, mode: str
) -> list[tuple[float, Gaussian]]:
    """Iterate the proximal recursion for cfg.steps steps of size cfg.h.

    Returns [(0, g0), (h, g1), ...]. Mode "symmetric-exact" requires a
    symmetric drift and B B^T = I/beta and applies the exact proximal step;
    "general-first-order" uses the equipartition-frame mean recursion and the
    first-order covariance recursion. A step that fails keeps its error
    class (NumericFailure for an overflow) and reads
    "<mode> propagation failed at step k: <cause>".
    """
    require_same_dim("state and system", sys.dim, g0.dim)
    require_choice(mode, (MODE_SYMMETRIC, MODE_GENERAL), "propagation mode")
    if mode == MODE_SYMMETRIC:
        require_single(g0)  # before the guard, which reads a refusal as numeric
        if not is_symmetric(sys.a):
            raise ModeMismatchError(
                "symmetric-exact mode requires a symmetric drift; "
                f"asymmetry {max_abs(sys.a - sys.a.T):.3e}"
            )
        if cfg.beta is None:
            raise ModeMismatchError("symmetric-exact mode requires beta in the step config")
        bbt = sys.b @ sys.b.T
        if not is_isotropic(bbt, 1.0 / cfg.beta):
            raise ModeMismatchError(
                "symmetric-exact mode requires isotropic noise B B^T = I/beta; "
                f"deviation {max_abs(bbt - np.eye(sys.dim) / cfg.beta):.3e}"
            )
        gamma = SpdMatrix(-sys.a)
        step = lambda g: jko_step_symmetric(g, gamma, cfg.beta, cfg.h)
    else:
        _, step = general_step(sys, cfg.h)
    out = [(0.0, g0)]
    with named_failures(lambda: f"{mode} propagation failed at step {len(out)}"):
        for k in range(1, cfg.steps + 1):
            out.append((k * cfg.h, step(out[-1][1])))
    return out
