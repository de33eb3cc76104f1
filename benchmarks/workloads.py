"""Seeded input generation for the three benchmark workloads.

Everything a workload hands the program is drawn here from the workload
seed and written into a work directory: proxflow JSON configs, measurement
increments (.npy) and a manifest that lists the operations of one round.
Only numpy and scipy are used, so the inputs do not depend on the code
under test.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import numpy as np
import scipy.linalg

NAMES = ("mc_scalar", "general_dense", "converge_scalar")

H = 0.02
HORIZON = 6.0
STEPS = 300  # HORIZON / H
MC_SEEDS = 40
CONVERGE_H = (0.02, 0.01, 0.005)
CONVERGE_HORIZON = 20.0
DENSE_SIZES = {"n8": (8, 3), "n16": (16, 4)}
SYMMETRIC_N = 16

# The same relative rank floor LinearSystem applies (CONTROLLABILITY_RTOL).
CONTROLLABILITY_RTOL = 1e-9
# Smallest admissible max|skew| / max|A_ep| in the equipartition frame.
SKEW_MIN = 1e-3


def _scalar_config(cov0, h_values, horizon, seeds, mode):
    """The scalar benchmark system A=-1, B=C=R=1 with a zero prior mean."""
    return {
        "system": {"A": [[-1.0]], "B": [[1.0]]},
        "measurement": {"C": [[1.0]], "R": [[1.0]]},
        "initial": {"mean": [0.0], "cov": [[cov0]]},
        "steps": {"h": list(h_values), "horizon": horizon},
        "seeds": seeds,
        "mode": mode,
    }


def _orthogonal(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def _spd(rng, n, low, high):
    q = _orthogonal(rng, n)
    return (q * rng.uniform(low, high, size=n)) @ q.T


def _sqrt_spd(p):
    w, v = np.linalg.eigh(p)
    return (v * np.sqrt(w)) @ v.T


def _dense_system(rng, n):
    """Non-symmetric Hurwitz drift with spectral abscissa -0.3 and a
    well-conditioned noise matrix.

    The drift is a Gaussian matrix scaled by 1/sqrt(n) so its spectrum stays
    O(1) at n=16; unscaled draws make LinearSystem's controllability rank
    test fail and the first-order covariance step lose definiteness at
    h=0.02.
    """
    g = rng.normal(size=(n, n)) / np.sqrt(n)
    a = g - (np.max(np.linalg.eigvals(g).real) + 0.3) * np.eye(n)
    b = (_orthogonal(rng, n) * rng.uniform(0.5, 1.5, size=n)) @ _orthogonal(rng, n)
    _assert_general(a, b)
    return a, b


def _assert_general(a, b):
    """The drift must be controllable and keep a skew part in the
    equipartition frame, or the rotating-frame expm path never runs."""
    n = a.shape[0]
    blocks = [b]
    for _ in range(n - 1):
        blocks.append(a @ blocks[-1])
    sv = np.linalg.svd(np.hstack(blocks), compute_uv=False)
    rank = int(np.sum(sv > CONTROLLABILITY_RTOL * sv[0]))
    if rank < n:
        raise RuntimeError(f"generated n={n} drift is not controllable (rank {rank})")
    pinf = scipy.linalg.solve_continuous_lyapunov(a, -2.0 * b @ b.T)
    s = _sqrt_spd(0.5 * (pinf + pinf.T))
    a_ep = np.linalg.solve(s, a @ s)
    skew = 0.5 * (a_ep - a_ep.T)
    ratio = np.max(np.abs(skew)) / np.max(np.abs(a_ep))
    if ratio < SKEW_MIN:
        raise RuntimeError(f"generated n={n} drift has no skew part in the equipartition frame")


def _increments(rng, a, b, c, r, mean0, cov0, h, steps):
    """Euler-Maruyama measurement increments dz_k = h C x_k + sqrt(h) R^(1/2) eta_k."""
    x = mean0 + _sqrt_spd(cov0) @ rng.normal(size=a.shape[0])
    r_half = _sqrt_spd(r)
    dz = np.empty((steps, c.shape[0]))
    for k in range(steps):
        dz[k] = h * (c @ x) + np.sqrt(h) * (r_half @ rng.normal(size=c.shape[0]))
        x = x + h * (a @ x) + np.sqrt(2.0 * h) * (b @ rng.normal(size=b.shape[1]))
    return dz


def _write_json(path: Path, doc) -> str:
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return str(path)


def _cli_op(command, name, config, out, steps):
    argv = [command, "--config", config, "--out", str(out), "--threads", "1"]
    return {"id": command, "kind": "cli", "argv": argv, "config": name, "out": str(out),
            "steps": steps}


def _mc_scalar(seed, work):
    rnd = random.Random(seed)
    seeds = sorted(rnd.sample(range(2 ** 31), MC_SEEDS))
    doc = _scalar_config(1.0, [H], HORIZON, seeds, {"task": "compare", "predict": "jko"})
    config = _write_json(work / "compare.json", doc)
    op = _cli_op("compare-filters", "compare", config, work / "compare.csv", 2 * MC_SEEDS * STEPS)
    return {"entry": "cli", "configs": {"compare": config}, "frames": ["compare"], "ops": [op]}


def _converge_scalar(seed, work):
    path_seed = random.Random(seed).randrange(2 ** 31)
    mode = {"task": "filter", "update": "lmmr", "predict": "jko"}
    doc = _scalar_config(2.0, CONVERGE_H, CONVERGE_HORIZON, [path_seed], mode)
    config = _write_json(work / "converge.json", doc)
    # One filter step per h step, plus one reference interval per finest step.
    steps = sum(round(CONVERGE_HORIZON / h) for h in CONVERGE_H)
    steps += round(CONVERGE_HORIZON / min(CONVERGE_H))
    op = _cli_op("converge-filter", "converge", config, work / "converge.csv", steps)
    return {"entry": "cli", "configs": {"converge": config}, "frames": ["converge"], "ops": [op]}


def _general_dense(seed, work):
    rng = np.random.default_rng(seed)
    configs, dz_paths, ops = {}, {}, []
    for name, (n, m) in DENSE_SIZES.items():
        a, b = _dense_system(rng, n)
        c = rng.normal(size=(m, n)) / np.sqrt(n)
        r = _spd(rng, m, 0.5, 2.0)
        mean0 = rng.normal(size=n)
        cov0 = _spd(rng, n, 0.3, 3.0)
        doc = {
            "system": {"A": a.tolist(), "B": b.tolist()},
            "measurement": {"C": c.tolist(), "R": r.tolist()},
            "initial": {"mean": mean0.tolist(), "cov": cov0.tolist()},
            "steps": {"h": [H], "horizon": HORIZON},
            "seeds": [seed],
            "mode": {"task": "compare", "predict": "jko"},
        }
        configs[name] = _write_json(work / f"{name}.json", doc)
        dz_paths[name] = str(work / f"{name}_dz.npy")
        np.save(dz_paths[name], _increments(rng, a, b, c, r, mean0, cov0, H, STEPS))
        for predict in ("jko", "exact"):
            for update in ("lmmr", "wasserstein"):
                ops.append({"id": f"{name}/{predict}/{update}", "kind": "filter", "config": name,
                            "update": update, "predict": predict, "steps": STEPS})
        ops.append({"id": f"{name}/general", "kind": "propagate", "config": name,
                    "mode": "general-first-order", "steps": STEPS})
    n = SYMMETRIC_N
    doc = {
        "system": {"A": (-_spd(rng, n, 0.3, 3.0)).tolist(), "B": np.eye(n).tolist()},
        "initial": {"mean": rng.normal(size=n).tolist(), "cov": _spd(rng, n, 0.3, 3.0).tolist()},
        "steps": {"h": [H], "horizon": HORIZON, "beta": 1.0},
        "mode": {"task": "propagation", "propagation": "symmetric-exact"},
    }
    configs["sym16"] = _write_json(work / "sym16.json", doc)
    ops.append({"id": "sym16/symmetric", "kind": "propagate", "config": "sym16",
                "mode": "symmetric-exact", "steps": STEPS})
    return {"entry": "library", "configs": configs, "frames": list(DENSE_SIZES),
            "dz": dz_paths, "ops": ops}


def generate(name: str, seed: int, work: Path) -> dict:
    """Write the workload's inputs under work and return its manifest.

    The manifest names the configs the set-up parses, the systems whose
    equipartition frame the set-up builds, and the operations of one round,
    each with the number of model steps it advances.
    """
    builders = {"mc_scalar": _mc_scalar, "general_dense": _general_dense,
                "converge_scalar": _converge_scalar}
    manifest = builders[name](seed, work)
    manifest.update(workload=name, seed=seed, warm_dir=str(work / "warm"))
    (work / "warm").mkdir()
    _write_json(work / "manifest.json", manifest)
    return manifest
