"""scripts/bits.py: one SHA-256 over the bits of filter runs, reference runs
and simulated paths, the same on every run, and its comparison against a
parent checkout."""

import importlib.util
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bits.py"


def _bits():
    spec = importlib.util.spec_from_file_location("bits_script", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_runs_give_the_same_hash_and_this_tree_is_its_own_parent():
    # --parent . hashes this tree here and again in a fresh process
    out = subprocess.run([sys.executable, str(SCRIPT), "--parent", "."], cwd=ROOT,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
    ours, parent, verdict = out.stdout.splitlines()
    assert re.fullmatch(r"[0-9a-f]{64}", ours)
    assert (parent, verdict) == (f"{ours} (parent)", "same bits as the parent")


def test_the_first_differing_group_is_named():
    first_difference = _bits().first_difference
    ours = {"simulate": "a", "run_filter": "b", "reference": "c"}
    assert first_difference(ours, dict(ours)) is None
    assert first_difference(ours, {**ours, "run_filter": "x", "reference": "y"}) == "run_filter"
    assert first_difference(ours, {"simulate": "a", "run_filter": "b"}) == "reference"
    assert first_difference(ours, {**ours, "extra": "d"}) == "the group list"
