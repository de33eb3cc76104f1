import math
import pathlib
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxflow import (
    DimensionError,
    Gaussian,
    GaussianStream,
    LinearSystem,
    MeasurementModel,
    NumericFailure,
    SpdMatrix,
    StepConfig,
    StepSizeError,
    ValidationError,
    coarsen,
    lyapunov_solve,
    simulate,
    sqrt_spd,
)
from proxflow.rng import _GAMMA
from support import load_bench_module, random_spd, random_system

# An independent plain-float generator: the stream's normals, one at a time.
_normals = load_bench_module("reference")._normals

SCALAR_SYS = LinearSystem([[-1.0]], [[1.0]])
SCALAR_MEAS = MeasurementModel([[1.0]], SpdMatrix(1.0))
SCALAR_PRIOR = Gaussian([0.0], SpdMatrix(1.0))
SIMULATE_PY = pathlib.Path(__file__).resolve().parent.parent / "src" / "proxflow" / "simulate.py"
# A seed is an integer in [0, 2**64); none of these may be cut down to one.
BAD_SEEDS = [1.9, -1, 2**64, True, "3"]


def _reference(seed, count):
    return np.fromiter(_normals(seed), float, count)


class TestGaussianStream:
    def test_moments(self):
        stream = GaussianStream(99)
        draws = stream.draw(50_000)
        assert abs(draws.mean()) < 3.0 / math.sqrt(50_000)
        assert abs(draws.var() - 1.0) < 3.0 * math.sqrt(2.0 / 50_000)

    def test_reproducible(self):
        assert np.array_equal(GaussianStream(5).draw(100), GaussianStream(5).draw(100))

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    @settings(deadline=None, max_examples=50)
    def test_uniforms_in_unit_interval(self, seed):
        u = GaussianStream(seed)._uniforms(20)
        assert ((0.0 <= u) & (u < 1.0)).all()

    @pytest.mark.parametrize("seed", [0, 17, 2**63 + 5, 2**64 - 1])
    def test_block_draw_matches_scalar_stream(self, seed):
        for count in (0, 1, 5, 4, 7, 1000):  # fresh streams, as simulate draws
            assert GaussianStream(seed).draw(count).tobytes() == _reference(seed, count).tobytes()

    def test_each_draw_starts_a_pair(self):
        # draw(5) takes three pairs and drops the third sine, normal 5.
        stream, want = GaussianStream(17), _reference(17, 7)
        assert stream.draw(5).tobytes() == want[0:5].tobytes()
        assert stream.draw(1).tobytes() == want[6:7].tobytes()

    @pytest.mark.parametrize("seed", BAD_SEEDS, ids=repr)
    def test_seed_outside_the_range_is_refused(self, seed):
        with pytest.raises(ValidationError, match=rf"^seed must be an integer in \[0, 2\*\*64\), "
                                                  rf"got {re.escape(repr(seed))}$"):
            GaussianStream(seed)

    @pytest.mark.parametrize("seed", [np.int64(5), np.uint64(2**64 - 1)], ids=repr)
    def test_numpy_integer_seed_is_its_int(self, seed):
        assert GaussianStream(seed).draw(9).tobytes() == GaussianStream(int(seed)).draw(9).tobytes()

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 6, 9])
    def test_zero_uniform_rejection_matches_scalar_stream(self, k):
        # Uniform k is mix(seed + k gamma), and mix(0) = 0: seed -k gamma makes
        # uniform k exactly 0, a rejected u1 for odd k and a kept u2 for even k;
        # k = 5, 6 and 9 fall in the second call, which starts after two pairs.
        seed = (-k * _GAMMA) % 2**64
        assert GaussianStream(seed)._uniforms(k)[-1] == 0.0
        stream, want = GaussianStream(seed), _reference(seed, 12)
        assert stream.draw(3).tobytes() == want[0:3].tobytes()
        assert stream.draw(8).tobytes() == want[4:12].tobytes()


class TestSimulate:
    def test_seed_reproducibility(self):
        cfg = StepConfig(h=0.01, steps=200)
        a_states, a_dz = simulate(SCALAR_SYS, SCALAR_MEAS, SCALAR_PRIOR, cfg, [7])
        b_states, b_dz = simulate(SCALAR_SYS, SCALAR_MEAS, SCALAR_PRIOR, cfg, [7])
        c_states, _ = simulate(SCALAR_SYS, SCALAR_MEAS, SCALAR_PRIOR, cfg, [8])
        assert np.array_equal(a_states, b_states)
        assert np.array_equal(a_dz, b_dz)
        assert not np.array_equal(a_states, c_states)

    def test_gaussian_initial_draw_fixed_by_seed(self):
        g0 = Gaussian([1.0], SpdMatrix(4.0))
        cfg = StepConfig(h=0.01, steps=1)
        a, _ = simulate(SCALAR_SYS, SCALAR_MEAS, g0, cfg, [3])
        b, _ = simulate(SCALAR_SYS, SCALAR_MEAS, g0, cfg, [3])
        assert a[0, 0, 0] == b[0, 0, 0]
        assert a[0, 0, 0] != 1.0  # actually drawn, not the mean

    def test_stationary_variance(self):
        n_steps = 20_000
        h = 0.01
        g0 = Gaussian([0.0], SpdMatrix(1.0))
        states, _ = simulate(SCALAR_SYS, SCALAR_MEAS, g0, StepConfig(h=h, steps=n_steps), [2024])
        pinf = lyapunov_solve(SCALAR_SYS.a, SCALAR_SYS.diffusion())[0, 0]
        sample_var = float(np.var(states[0, :, 0]))
        # integrated autocorrelation time ~ (1+rho)/(1-rho) steps
        rho = math.exp(-h)
        n_eff = n_steps / ((1 + rho) / (1 - rho))
        assert abs(sample_var - pinf) < 3.0 * pinf * math.sqrt(2.0 / n_eff)

    def test_increment_residual_statistics(self):
        n_steps = 20_000
        h = 0.01
        states, increments = simulate(
            SCALAR_SYS, SCALAR_MEAS, SCALAR_PRIOR, StepConfig(h=h, steps=n_steps), [77]
        )
        resid = increments[0, :, 0] - h * states[0, :-1, 0]
        assert abs(float(np.var(resid)) - h) < 3.0 * h * math.sqrt(2.0 / n_steps)

    @pytest.mark.parametrize("a,factor", [
        ([[-100.0]], "1"),
        ([[-150.0]], "2"),
        ([[-0.1, 10.0], [-10.0, -0.1]], r"1\.01784"),
    ], ids=["boundary", "stiff", "oscillatory"])
    def test_step_that_does_not_decay_is_refused(self, a, factor, monkeypatch):
        # Euler-Maruyama multiplies the state by I + h A each step; at a
        # spectral radius of 1 or more the simulated truth cannot decay.
        monkeypatch.setattr(GaussianStream, "draw", None)  # nothing may be drawn
        sys = LinearSystem(a, np.eye(len(a)))
        meas = MeasurementModel(np.ones((1, len(a))), SpdMatrix(1.0))
        g0 = Gaussian(np.zeros(len(a)), SpdMatrix(np.eye(len(a))))
        with pytest.raises(StepSizeError, match=rf"^Euler-Maruyama step h=0\.02 does not "
                                                rf"decay: .* I \+ h A is {factor} >= 1"):
            simulate(sys, meas, g0, StepConfig(h=0.02, steps=5), [1])

    def test_noise_streams_uncorrelated(self):
        n_steps = 20_000
        h = 0.01
        states, increments = (a[0] for a in simulate(
            SCALAR_SYS, SCALAR_MEAS, SCALAR_PRIOR, StepConfig(h=h, steps=n_steps), [78]
        ))
        xi = (states[1:, 0] - (1.0 - h) * states[:-1, 0]) / math.sqrt(2 * h)
        eta = (increments[:, 0] - h * states[:-1, 0]) / math.sqrt(h)
        corr = float(np.corrcoef(xi, eta)[0, 1])
        assert abs(corr) < 3.0 / math.sqrt(n_steps)


class TestInputForm:
    """One input form: a Gaussian prior and a 1-D sequence of seeds; always a batch out."""

    CFG = StepConfig(h=0.01, steps=4)

    def test_one_seed_is_a_batch_of_one(self):
        states, increments = simulate(SCALAR_SYS, SCALAR_MEAS, SCALAR_PRIOR, self.CFG, [7])
        assert states.shape == (1, 5, 1) and increments.shape == (1, 4, 1)

    @pytest.mark.parametrize("seeds", [7, np.int64(7), "7", [[1, 2]], np.zeros((2, 2), int)],
                             ids=["int", "numpy-int", "str", "nested", "2-D"])
    def test_scalar_or_nested_seeds_are_refused(self, seeds):
        with pytest.raises(ValidationError, match=r"^seeds must be a 1-D sequence of seeds"):
            simulate(SCALAR_SYS, SCALAR_MEAS, SCALAR_PRIOR, self.CFG, seeds)

    @pytest.mark.parametrize("seed", BAD_SEEDS, ids=repr)
    def test_seed_outside_the_range_is_refused(self, seed):
        with pytest.raises(ValidationError, match=r"^seed must be an integer in \[0, 2\*\*64\)"):
            simulate(SCALAR_SYS, SCALAR_MEAS, SCALAR_PRIOR, self.CFG, [3, seed])

    @pytest.mark.parametrize("g0", [[0.0], np.zeros(1)], ids=["list", "array"])
    def test_state_vector_start_is_refused(self, g0):
        with pytest.raises(ValidationError, match=r"^g0 must be a Gaussian prior, got "):
            simulate(SCALAR_SYS, SCALAR_MEAS, g0, self.CFG, [7])

    def test_overflow_is_trapped_by_the_shared_guard(self):
        # h C x overflows in the increments; nothing may warn on the way
        meas = MeasurementModel([[1e150]], SpdMatrix(1.0))
        g0 = Gaussian([1e200], SpdMatrix(1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericFailure, match=r"^simulation overflowed: overflow"):
                simulate(SCALAR_SYS, meas, g0, self.CFG, [7])
        text = SIMULATE_PY.read_text()
        assert "np.errstate" not in text and "np.isfinite" not in text


def _stepwise_simulate(sys, meas, g0, cfg, seed, process_scale, measurement_scale):
    """The recursion one step at a time, drawing per step from the reference stream."""
    normals = _normals(seed)

    def draw(count):
        return np.fromiter(normals, float, count)

    x = g0.mean + sqrt_spd(g0.cov).mat @ draw(sys.dim)
    h = cfg.h
    r_half = sqrt_spd(meas.r).mat
    states, increments = [x], []
    for _ in range(cfg.steps):
        xi = draw(sys.noise_dim)
        eta = draw(meas.obs_dim)
        increments.append(h * (meas.c @ x) + measurement_scale * np.sqrt(h) * (r_half @ eta))
        x = x + h * (sys.a @ x) + process_scale * np.sqrt(2.0 * h) * (sys.b @ xi)
        states.append(x)
    return np.array(states), np.array(increments).reshape(cfg.steps, meas.obs_dim)


@pytest.mark.parametrize("n,m", [(1, 1), (3, 2), (8, 3)])
@pytest.mark.parametrize("scales", [(1.0, 1.0)])  # simulate's noise scales are fixed at one
def test_simulate_matches_stepwise_recursion_bitwise(n, m, scales):
    rng = np.random.default_rng(90 + n)
    sys = random_system(rng, n)
    meas = MeasurementModel(rng.normal(size=(m, n)), random_spd(rng, m))
    g0 = Gaussian(rng.normal(size=n), random_spd(rng, n))
    cfg = StepConfig(h=0.02, steps=40)
    states, increments = simulate(sys, meas, g0, cfg, [17])
    want_states, want_increments = _stepwise_simulate(sys, meas, g0, cfg, 17, *scales)
    assert np.array_equal(states[0], want_states)
    assert np.array_equal(increments[0], want_increments)


@pytest.mark.parametrize("n", [1, 3, 8, 16])
def test_seed_batch_matches_one_seed_runs_bitwise(n):
    rng = np.random.default_rng(70 + n)
    sys = random_system(rng, n)
    meas = MeasurementModel(rng.normal(size=(2, n)), random_spd(rng, 2))
    g0 = Gaussian(rng.normal(size=n), random_spd(rng, n))
    cfg = StepConfig(h=0.02, steps=48)
    seeds = [4, 0, 2**64 - 1, 4]
    states, increments = simulate(sys, meas, g0, cfg, seeds)
    assert states.shape == (4, 49, n) and increments.shape == (4, 48, 2)
    for i, seed in enumerate(seeds):
        one_states, one_increments = simulate(sys, meas, g0, cfg, [seed])
        assert np.array_equal(states[i], one_states[0])
        assert np.array_equal(increments[i], one_increments[0])
    for factor in (2, 3, 8, 16):
        coarse = coarsen(increments, factor)
        assert coarse.shape == (4, 48 // factor, 2)
        for i, seed in enumerate(seeds):
            _, one_increments = simulate(sys, meas, g0, cfg, [seed])
            assert np.array_equal(coarse[i], coarsen(one_increments, factor)[0])
    with pytest.raises(ValidationError, match="seeds must not be empty"):
        simulate(sys, meas, g0, cfg, [])


class TestCoarsen:
    def test_groups_sum_exactly(self):
        cfg = StepConfig(h=0.01, steps=12)
        _, dz = simulate(SCALAR_SYS, SCALAR_MEAS, Gaussian([0.5], SpdMatrix(1.0)), cfg, [5])
        coarse = coarsen(dz, 4)
        assert coarse.shape == (1, 3, 1)
        assert np.allclose(coarse[0, :, 0], dz[0, :, 0].reshape(3, 4).sum(axis=1), atol=0)

    def test_identity_factor(self):
        cfg = StepConfig(h=0.01, steps=4)
        _, dz = simulate(SCALAR_SYS, SCALAR_MEAS, Gaussian([0.5], SpdMatrix(1.0)), cfg, [6])
        assert np.array_equal(coarsen(dz, 1), dz)

    def test_rejects_non_divisible(self):
        with pytest.raises(ValidationError,
                           match=r"^10 steps cannot be regrouped by a factor of 3$"):
            coarsen(np.zeros((1, 10, 1)), 3)

    @pytest.mark.parametrize("factor", [0, 1.5, -2, math.inf, math.nan, True, "2", None, 10**400],
                             ids=repr)
    def test_rejects_a_factor_that_is_not_a_positive_integer(self, factor):
        with pytest.raises(ValidationError,
                           match=rf"^factor must be a positive integer, got {re.escape(str(factor))}$"):
            coarsen(np.zeros((1, 6, 1)), factor)

    @pytest.mark.parametrize("shape", [(6,), (6, 1), (1, 1, 6, 1)])
    def test_rejects_increments_that_are_not_3d(self, shape):
        with pytest.raises(DimensionError,
                           match=rf"^increments must be a 3-D array, got shape "
                                 rf"{re.escape(str(shape))}$"):
            coarsen(np.zeros(shape), 1)

    @pytest.mark.parametrize("factor", [1, 2])
    def test_simulated_and_coarsened_arrays_are_read_only(self, factor):
        # a write to a path would change every step size that shares it
        cfg = StepConfig(h=0.01, steps=6)
        states, dz = simulate(SCALAR_SYS, SCALAR_MEAS, Gaussian([0.5], SpdMatrix(1.0)), cfg, [8, 9])
        coarse = coarsen(dz, factor)
        for arr in (states, dz, coarse):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0, 0, 0] = 1.0
        mine = np.array(dz)  # the caller's writable increments stay its own
        coarse = coarsen(mine, factor)
        mine[0, 0, 0] += 1.0
        assert np.array_equal(coarse, coarsen(dz, factor))
