#!/usr/bin/env python3
"""Hash the bits of proxflow's filter runs, reference runs and simulated paths.

    python3 scripts/bits.py [--parent DIR | --write FILE | --check FILE]

Prints one SHA-256 over, in this order:
- simulate's states and increments, n in {1, 2, 8}, one seed and 3 seeds;
- run_filter's means and covariances for n in {1, 2, 8} x {one path, 3 seeds}
  x both updates x both predicts;
- the means and covariances of kalman_bucy_run and luenberger_run for
  n in {1, 2} x {1, 3 seeds};
each over STEPS steps at h = H on systems drawn from a fixed seed, and fed the
simulated increments. A run that raises a ProxflowError is hashed as its class
and text. With --parent DIR it also computes the hash with DIR/src in a
subprocess, prints both, and exits 1 naming every group that differs, one
per line. --write FILE stores every group's hash in FILE as JSON, with the
name of the OpenBLAS kernel (core) that numpy runs here, or null where it
cannot be read. --check FILE hashes every group where this host's core is
the one FILE records, and otherwise only the n = 1 groups, whose bits agree
under every kernel (the n >= 2 ones change with it), saying why; it exits 1
naming every hashed group that FILE holds another hash for or lacks.
"""

from __future__ import annotations

import argparse
import ctypes
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
HOST_INDEPENDENT_DIMS = (1,)  # what --check hashes under another OpenBLAS core
CORE = "OpenBLAS core"  # the key a --write file holds the core under
CORE_FUNCTION = "scipy_openblas_get_corename64_"  # in the OpenBLAS that numpy wheels bundle
SEEDS = {"one path": [0], "3 seeds": [0, 1, 2]}


def _problem(pf, np, n: int):
    """A stable, controllable system with m = ceil(n / 2) sensors, its prior
    and its measurement model, drawn from SEED and n. The drift's spectral
    abscissa is -0.5, or -0.7 at n = 1: a 1 x 1 drift of -0.5 would make each
    product by it an exact halving, which hides a reassociated product."""
    rng = np.random.default_rng([SEED, n])
    a = rng.normal(size=(n, n)) / math.sqrt(n)
    a -= (np.max(np.linalg.eigvals(a).real) + (0.7 if n == 1 else 0.5)) * np.eye(n)
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


def groups(src: Path, dims: tuple = DIMS) -> dict:
    """{group name: SHA-256 of its bits} for the systems of dimension in dims,
    with proxflow imported from src."""
    sys.path.insert(0, str(src))
    import numpy as np
    import proxflow as pf

    cfg = pf.StepConfig(h=H, steps=STEPS)
    out = {}
    for n in dims:
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


def openblas_core() -> str | None:
    """The OpenBLAS kernel numpy's bundled library runs here, as the library
    names it (OPENBLAS_CORETYPE picks another), or None if it cannot be read."""
    import numpy as np

    for lib in sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob(
            "*openblas*")):
        try:
            dll = ctypes.CDLL(str(lib))  # the copy numpy loaded: dlopen shares it
        except OSError:
            continue
        if hasattr(dll, CORE_FUNCTION):
            corename = getattr(dll, CORE_FUNCTION)
            corename.restype = ctypes.c_char_p
            return corename().decode()
    return None


def total(digests: dict) -> str:
    return hashlib.sha256("".join(digests.values()).encode()).hexdigest()


def differences(ours: dict, parent: dict) -> list:
    """Every group whose hash the parent does not share, in our order, then
    every group only the parent has, marked "(parent only)"; [] if all agree."""
    return ([name for name in ours if parent.get(name) != ours[name]]
            + [f"{name} (parent only)" for name in parent if name not in ours])


def unmatched(digests: dict, recorded: dict) -> list:
    """Every group of digests whose hash recorded does not share, in order,
    marked "(differs)" or "(not recorded)"; [] if all match."""
    return [f"{name} ({'differs' if name in recorded else 'not recorded'})"
            for name in digests if recorded.get(name) != digests[name]]


_CHILD = """import json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import bits
print(json.dumps(bits.groups(Path(sys.argv[2]))))
"""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    what = parser.add_mutually_exclusive_group()
    what.add_argument("--parent", type=Path, help="a checkout whose src/ to compare against")
    what.add_argument("--write", type=Path, metavar="FILE", help="store every group's hash")
    what.add_argument("--check", type=Path, metavar="FILE",
                      help="compare the groups this host's OpenBLAS core reproduces "
                           "with the hashes FILE stores")
    args = parser.parse_args(argv)
    if args.check is not None:
        recorded = json.loads(args.check.read_text())
        core = openblas_core()
        if core is not None and core == recorded.get(CORE):
            digests, what = groups(ROOT / "src"), f"groups (OpenBLAS core {core})"
        else:
            print(f"n >= 2 groups not checked: OpenBLAS core {core} here, "
                  f"{recorded.get(CORE)} in {args.check}")
            digests, what = groups(ROOT / "src", HOST_INDEPENDENT_DIMS), "n = 1 groups"
        bad = unmatched(digests, recorded)
        if bad:
            print(f"differs from {args.check} in {len(bad)} groups:")
            print("\n".join(bad))
            return 1
        print(f"{len(digests)} {what} match {args.check}")
        return 0
    digests = groups(ROOT / "src")
    print(total(digests))
    if args.write is not None:
        args.write.write_text(json.dumps({CORE: openblas_core(), **digests}, indent=1) + "\n")
        return 0
    if args.parent is None:
        return 0
    # a fresh process, so the parent's proxflow is the one it imports
    here, src = Path(__file__).resolve().parent, args.parent.resolve() / "src"
    child = subprocess.run([sys.executable, "-c", _CHILD, str(here), str(src)],
                           stdout=subprocess.PIPE, text=True, check=True)
    parent = json.loads(child.stdout)
    print(f"{total(parent)} (parent)")
    differing = differences(digests, parent)
    if differing:
        print(f"differs from the parent in {len(differing)} groups:")
        print("\n".join(differing))
        return 1
    print("same bits as the parent")
    return 0


if __name__ == "__main__":
    sys.exit(main())
