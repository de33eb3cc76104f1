"""Independent recomputation of every workload output, for the output check.

Written from the model equations, not from proxflow. Scalar paths use plain
Python floats: the SplitMix64 + Box-Muller simulator, the two proximal
updates and the Kalman-Bucy RK4 reference run. Dense paths use numpy/scipy
in forms the library does not use: the constant equipartition-frame mean
map M_h = Pinf^(1/2) (I - h A_sym)^-1 e^(h A_skew) Pinf^(-1/2), and the
Van Loan exact covariance transition P -> Phi P Phi^T + Pinf - Phi Pinf Phi^T.

Tolerance: every output x is compared as |x - x_ref| <= RTOL * max(|x_ref|, 1),
taking the max over a path. All outputs are means, covariances, errors or
error ratios of O(1) quantities. RTOL = 1e-8 admits reordered floating
point (a batched filter moved n=8 means by 1.2e-11) and the RK4 truncation
of the library's exact predict, and fails any recursion that is off by a
term of order h (about 1e-2 here).

The oracle facts are checked on the program's own output: the terminal
covariance of the KL filter on the scalar benchmark lies within ORACLE_C * h
of sqrt(3) - 1 (the Kalman-Bucy stationary value), and that of the transport
filter within ORACLE_C * h of 0.5 (the static-gain observer's).
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np
import scipy.linalg

RTOL = 1e-8
ORACLE_C = 0.5

_MASK64 = (1 << 64) - 1


# ---------------------------------------------------------------- scalar


def _normals(seed: int):
    """SplitMix64 uniforms, Box-Muller pairs (cosine first), zero u1 skipped."""
    state = int(seed) & _MASK64

    def uniform():
        nonlocal state
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return ((z ^ (z >> 31)) >> 11) * 2.0 ** -53

    while True:
        u1 = uniform()
        while u1 == 0.0:
            u1 = uniform()
        u2 = uniform()
        radius = math.sqrt(-2.0 * math.log(u1))
        yield radius * math.cos(2.0 * math.pi * u2)
        yield radius * math.sin(2.0 * math.pi * u2)


def _scalar_model(doc):
    return tuple(float(doc[k][m][0][0]) for k, m in
                 (("system", "A"), ("system", "B"), ("measurement", "C"), ("measurement", "R")))


def _scalar_simulate(doc, h, steps, seed):
    """Euler-Maruyama truth and increments; the initial state is one draw
    from the prior, then per step the process draw precedes the measurement draw."""
    a, b, c, r = _scalar_model(doc)
    draws = _normals(seed)
    x = float(doc["initial"]["mean"][0]) + math.sqrt(doc["initial"]["cov"][0][0]) * next(draws)
    states, dz = [x], []
    for _ in range(steps):
        xi, eta = next(draws), next(draws)
        dz.append(h * c * x + math.sqrt(h) * math.sqrt(r) * eta)
        x = x + h * a * x + math.sqrt(2.0 * h) * b * xi
        states.append(x)
    return states, dz


def _scalar_filter(doc, dz, h, update):
    """JKO predict (resolvent mean, first-order covariance) then the update."""
    a, b, c, r = _scalar_model(doc)
    mu = float(doc["initial"]["mean"][0])
    p = float(doc["initial"]["cov"][0][0])
    info = c * c / r
    means = [mu]
    for inc in dz:
        y = inc / h
        mu = mu / (1.0 - h * a)
        p = p + h * (2.0 * a * p + 2.0 * b * b)
        if update == "lmmr":
            mu = (mu + h * p * c * y / r) / (1.0 + h * p * info)
            p = 1.0 / (1.0 / p + h * info)
        else:
            scale = 1.0 + h * info
            mu = (mu + h * c * y / r) / scale
            p = p / scale / scale
        means.append(mu)
    return means, p


def _kalman_bucy(doc, dz, h):
    """Riccati covariance by RK4 and mean by Euler, 20 substeps per interval."""
    a, b, c, r = _scalar_model(doc)
    dt = h / 20
    forcing = 2.0 * b * b

    def riccati(p):
        gain = p * c / r
        return 2.0 * a * p + forcing - gain * r * gain

    mu = float(doc["initial"]["mean"][0])
    p = float(doc["initial"]["cov"][0][0])
    means = [mu]
    for inc in dz:
        y = inc / h
        for _ in range(20):
            mu = mu + dt * (a * mu + p * c / r * (y - c * mu))
            k1 = riccati(p)
            k2 = riccati(p + 0.5 * dt * k1)
            k3 = riccati(p + 0.5 * dt * k2)
            k4 = riccati(p + dt * k3)
            p = p + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        means.append(mu)
    return means, p


def compare_rows(doc) -> dict:
    """compare-filters: per-seed terminal squared errors, RMSE, covariances."""
    h = doc["steps"]["h"][0]
    steps = round(doc["steps"]["horizon"] / h)
    rows, sq = {}, {"lmmr": [], "wasserstein": []}
    for seed in doc["seeds"]:
        states, dz = _scalar_simulate(doc, h, steps, seed)
        for kind in sq:
            means, p = _scalar_filter(doc, dz, h, kind)
            err = (means[-1] - states[-1]) ** 2
            rows[(h, seed, f"terminal_sq_error_{kind}")] = err
            sq[kind].append(err)
            rows[(h, None, f"terminal_cov_trace_{kind}")] = p
    for kind, values in sq.items():
        rows[(h, None, f"rmse_{kind}")] = math.sqrt(sum(values) / len(values))
    return rows


def converge_rows(doc) -> dict:
    """converge-filter: errors of the KL filter against the Kalman-Bucy run
    on the finest path, coarser paths being partial sums of its increments."""
    hs = sorted(doc["steps"]["h"], reverse=True)
    h_min = hs[-1]
    rows = {}
    for seed in doc["seeds"]:
        _, fine = _scalar_simulate(doc, h_min, round(doc["steps"]["horizon"] / h_min), seed)
        ref_means, ref_p = _kalman_bucy(doc, fine, h_min)
        errors = {}
        for h in hs:
            factor = round(h / h_min)
            dz = [sum(fine[i:i + factor]) for i in range(0, len(fine), factor)]
            means, p = _scalar_filter(doc, dz, h, "lmmr")
            errors[h] = abs(p - ref_p)
            sq = [(m - ref) ** 2 for m, ref in zip(means, ref_means[::factor])]
            rows[(h, seed, "terminal_cov_error")] = errors[h]
            rows[(h, seed, "mean_path_rmse_vs_reference")] = math.sqrt(sum(sq) / len(sq))
        for coarse, fine_h in zip(hs, hs[1:]):
            rows[(fine_h, seed, "terminal_cov_error_ratio")] = errors[coarse] / errors[fine_h]
    return rows


# ----------------------------------------------------------------- dense


def _sym(p):
    return 0.5 * (p + p.T)


def _dense_model(doc):
    a = np.array(doc["system"]["A"])
    b = np.array(doc["system"]["B"])
    return a, b, np.array(doc["initial"]["mean"]), np.array(doc["initial"]["cov"])


def _jko_predictor(a, b, h):
    pinf = _sym(scipy.linalg.solve_continuous_lyapunov(a, -2.0 * b @ b.T))
    w, v = np.linalg.eigh(pinf)
    root = (v * np.sqrt(w)) @ v.T
    a_ep = np.linalg.solve(root, a @ root)
    a_sym = _sym(a_ep)
    n = a.shape[0]
    step = np.linalg.solve(np.eye(n) - h * a_sym, scipy.linalg.expm(h * (a_ep - a_sym)))
    mean_map = root @ np.linalg.solve(root.T, step.T).T
    forcing = 2.0 * b @ b.T
    return mean_map, lambda p: _sym(p + h * (a @ p + p @ a.T + forcing))


def _exact_predictor(a, b, h):
    phi = scipy.linalg.expm(h * a)
    pinf = _sym(scipy.linalg.solve_continuous_lyapunov(a, -2.0 * b @ b.T))
    q_h = pinf - phi @ pinf @ phi.T
    return phi, lambda p: _sym(phi @ p @ phi.T + q_h)


def dense_filter(doc, dz, h, update, predict):
    a, b, mu, p = _dense_model(doc)
    c = np.array(doc["measurement"]["C"])
    rinv = np.linalg.inv(np.array(doc["measurement"]["R"]))
    info = c.T @ rinv @ c
    eye = np.eye(a.shape[0])
    mean_map, cov_step = (_jko_predictor if predict == "jko" else _exact_predictor)(a, b, h)
    means = [mu]
    for inc in dz:
        y = inc / h
        mu, p = mean_map @ mu, cov_step(p)
        if update == "lmmr":
            mu = np.linalg.solve(eye + h * p @ info, mu + h * p @ c.T @ rinv @ y)
            p = _sym(np.linalg.inv(np.linalg.inv(p) + h * info))
        else:
            scale_inv = np.linalg.inv(eye + h * info)
            mu = scale_inv @ (mu + h * c.T @ rinv @ y)
            p = _sym(scale_inv @ p @ scale_inv.T)
        means.append(mu)
    return np.array(means), p


def dense_propagation(doc, h, steps, mode):
    a, b, mu, p = _dense_model(doc)
    means = [mu]
    if mode == "general-first-order":
        mean_map, cov_step = _jko_predictor(a, b, h)
        for _ in range(steps):
            mu, p = mean_map @ mu, cov_step(p)
            means.append(mu)
        return np.array(means), p
    # Exact proximal step for drift -Gamma, noise I/beta: resolvent mean and
    # P = P0^(-1/2) Z^-2 P0^(-1/2), Z the SPD root of Z^2 + c Z - c Rhs = 0.
    c = doc["steps"]["beta"] / h
    shifted = np.eye(a.shape[0]) - h * a
    for _ in range(steps):
        mu = np.linalg.solve(shifted, mu)
        w, v = np.linalg.eigh(p)
        p_isqrt = (v / np.sqrt(w)) @ v.T
        wr, vr = np.linalg.eigh(_sym(p_isqrt @ shifted @ p_isqrt))
        z = 0.5 * c * (np.sqrt(1.0 + 4.0 * wr / c) - 1.0)
        p = _sym(p_isqrt @ ((vr / z ** 2) @ vr.T) @ p_isqrt)
        means.append(mu)
    return np.array(means), p


# ----------------------------------------------------------------- check


def _read_rows(data: bytes) -> dict:
    text = data.decode("utf-8")
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    rows = {}
    for rec in csv.DictReader(io.StringIO("\n".join(lines))):
        h = float(rec["h"]) if rec["h"] else None
        seed = int(rec["seed"]) if rec["seed"] else None
        rows[(h, seed, rec["metric"])] = float(rec["value"])
    return rows


def _rel_error(out, ref) -> float:
    out, ref = np.asarray(out, dtype=float), np.asarray(ref, dtype=float)
    if out.shape != ref.shape:
        return math.inf
    return float(np.max(np.abs(out - ref)) / max(float(np.max(np.abs(ref))), 1.0))


def _check_rows(rows, expected) -> str | None:
    if set(rows) != set(expected):
        return f"rows differ: got {len(rows)}, expected {len(expected)}"
    worst = max(expected, key=lambda k: _rel_error(rows[k], expected[k]))
    err = _rel_error(rows[worst], expected[worst])
    if err > RTOL:
        return f"{worst}: {rows[worst]!r} vs {expected[worst]!r} (relative {err:.2e})"
    return None


def _check_oracle(rows, h) -> str | None:
    for kind, target in (("lmmr", math.sqrt(3.0) - 1.0), ("wasserstein", 0.5)):
        value = rows[(h, None, f"terminal_cov_trace_{kind}")]
        if abs(value - target) > ORACLE_C * h:
            return f"{kind} terminal covariance {value} is not within {ORACLE_C}*h of {target}"
    return None


def check_op(manifest: dict, op: dict) -> str | None:
    """None when the warm-up output of op matches the recomputation, else why not."""
    stem = Path(manifest["warm_dir"]) / op["id"].replace("/", "_")
    doc = json.loads(Path(manifest["configs"][op["config"]]).read_text(encoding="utf-8"))
    if op["kind"] == "cli":
        path = stem.with_suffix(".csv")
        if not path.is_file():
            return "no output was produced"
        rows = _read_rows(path.read_bytes())
        if op["id"] == "compare-filters":
            return _check_rows(rows, compare_rows(doc)) or _check_oracle(rows, doc["steps"]["h"][0])
        return _check_rows(rows, converge_rows(doc))
    path = stem.with_suffix(".npz")
    if not path.is_file():
        return "no output was produced"
    h = doc["steps"]["h"][0]
    steps = round(doc["steps"]["horizon"] / h)
    if op["kind"] == "filter":
        dz = np.load(manifest["dz"][op["config"]])
        means, cov = dense_filter(doc, dz, h, op["update"], op["predict"])
    else:
        means, cov = dense_propagation(doc, h, steps, op["mode"])
    with np.load(path) as out:
        err = max(_rel_error(out["means"], means), _rel_error(out["cov"], cov))
    if err > RTOL:
        return f"relative error {err:.2e} against the recomputation exceeds {RTOL:g}"
    return None
