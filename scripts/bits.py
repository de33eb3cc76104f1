#!/usr/bin/env python3
"""Hash the bits of proxflow's filter runs, reference runs and simulated paths.

    python3 scripts/bits.py [--parent DIR]

Prints one SHA-256 over, in this order:
- simulate's states and increments, n in {1, 2, 8}, one seed and 3 seeds;
- run_filter's means and covariances for n in {1, 2, 8} x {one path, 3 seeds}
  x both updates x both predicts;
- the means and covariances of kalman_bucy_run and luenberger_run for
  n in {1, 2} x {1, 3 seeds};
each over STEPS steps at h = H on systems drawn from a fixed seed, and fed the
simulated increments. A run that raises a ProxflowError is hashed as its class
and text. With --parent DIR it also computes the hash with DIR/src in a
subprocess, prints both, and exits 1 naming the first group that differs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
H, STEPS = 0.02, 600
SEED = 20_170  # draws every system, prior and measurement model
DIMS = (1, 2, 8)
REFERENCE_DIMS = (1, 2)
SEEDS = {"one path": [0], "3 seeds": [0, 1, 2]}


def _problem(pf, np, n: int):
    """A stable, controllable system with m = ceil(n / 2) sensors, its prior
    and its measurement model, drawn from SEED and n."""
    rng = np.random.default_rng([SEED, n])
    a = rng.normal(size=(n, n)) / math.sqrt(n)
    a -= (np.max(np.linalg.eigvals(a).real) + 0.5) * np.eye(n)
    b = np.eye(n) + 0.3 * rng.normal(size=(n, n)) / math.sqrt(n)
    m = (n + 1) // 2
    c = rng.normal(size=(m, n)) / math.sqrt(n)
    r = rng.normal(size=(m, m))
    p0 = rng.normal(size=(n, n))
    return (
        pf.LinearSystem(a, b),
        pf.MeasurementModel(c, pf.SpdMatrix(r @ r.T + m * np.eye(m))),
        pf.Gaussian(rng.normal(size=n), pf.SpdMatrix(p0 @ p0.T + np.eye(n))),
    )


def _bytes(out) -> list:
    """What a call gave, as byte strings: an array, a FilterRun's means and
    covariances, or a tuple of arrays."""
    if hasattr(out, "covs"):
        return [out.means().tobytes(), *(p.mat.tobytes() for p in out.covs)]
    if isinstance(out, tuple):
        return [a.tobytes() for a in out]
    return [out.tobytes()]


def _digest(pf, call) -> str:
    h = hashlib.sha256()
    try:
        parts = _bytes(call())
    except pf.ProxflowError as exc:
        parts = [f"{type(exc).__name__}: {exc}".encode()]
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def groups(src: Path) -> dict:
    """{group name: SHA-256 of its bits}, with proxflow imported from src."""
    sys.path.insert(0, str(src))
    import numpy as np
    import proxflow as pf

    cfg = pf.StepConfig(h=H, steps=STEPS)
    out = {}
    for n in DIMS:
        system, meas, g0 = _problem(pf, np, n)
        for label, seeds in SEEDS.items():
            states, dz = pf.simulate(system, meas, g0, cfg, seeds)
            out[f"simulate n={n} {label}"] = _digest(pf, lambda: (states, dz))
            data = dz[0] if len(seeds) == 1 else dz
            for update in ("lmmr", "wasserstein"):
                for predict in ("jko", "exact"):
                    out[f"run_filter n={n} {label} {update} {predict}"] = _digest(
                        pf, lambda: pf.run_filter(system, meas, g0, data, cfg, update, predict)
                    )
            if n in REFERENCE_DIMS:
                for run in (pf.kalman_bucy_run, pf.luenberger_run):
                    out[f"{run.__name__} n={n} {label}"] = _digest(
                        pf, lambda: run(system, meas, g0, data, H)
                    )
    return out


def total(digests: dict) -> str:
    return hashlib.sha256("".join(digests.values()).encode()).hexdigest()


def first_difference(ours: dict, parent: dict) -> str | None:
    """The first group, in our order, whose hash the parent does not share;
    "the group list" if only the parent has more groups; None if all agree."""
    differing = [name for name in ours if parent.get(name) != ours[name]]
    if differing:
        return differing[0]
    return "the group list" if parent.keys() != ours.keys() else None


_CHILD = """import json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import bits
print(json.dumps(bits.groups(Path(sys.argv[2]))))
"""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, help="a checkout whose src/ to compare against")
    args = parser.parse_args(argv)
    digests = groups(ROOT / "src")
    print(total(digests))
    if args.parent is None:
        return 0
    # a fresh process, so the parent's proxflow is the one it imports
    here, src = Path(__file__).resolve().parent, args.parent.resolve() / "src"
    child = subprocess.run([sys.executable, "-c", _CHILD, str(here), str(src)],
                           stdout=subprocess.PIPE, text=True, check=True)
    parent = json.loads(child.stdout)
    print(f"{total(parent)} (parent)")
    group = first_difference(digests, parent)
    if group is not None:
        print(f"differs from the parent, first at: {group}")
        return 1
    print("same bits as the parent")
    return 0


if __name__ == "__main__":
    sys.exit(main())
