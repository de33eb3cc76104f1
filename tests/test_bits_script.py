"""scripts/bits.py: one SHA-256 over the bits of filter runs, reference runs
and simulated paths, the same on every run, its comparison against a
parent checkout, and its per-group digests in a file (--write, --check)."""

import importlib.util
import json
import pathlib
import re
import subprocess
import sys

import pytest

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


def test_every_differing_group_is_named_in_order():
    differences = _bits().differences
    ours = {"simulate": "a", "run_filter": "b", "reference": "c"}
    assert differences(ours, dict(ours)) == []
    assert differences(ours, {**ours, "run_filter": "x", "reference": "y"}) == [
        "run_filter", "reference"]
    assert differences(ours, {"simulate": "a", "run_filter": "b"}) == ["reference"]
    assert differences(ours, {**ours, "extra": "d", "more": "e"}) == [
        "extra (parent only)", "more (parent only)"]
    assert differences(ours, {"reference": "c", "simulate": "z", "extra": "d"}) == [
        "simulate", "run_filter", "extra (parent only)"]


def test_a_differing_parent_prints_every_group_one_per_line_and_exits_1(monkeypatch, capsys,
                                                                        tmp_path):
    bits = _bits()
    ours = {"simulate n=1": "a", "run_filter n=2 lmmr": "b", "run_filter n=8 lmmr": "c"}
    parent = {**ours, "run_filter n=2 lmmr": "x", "run_filter n=8 lmmr": "y"}

    def fake_run(args, **kwargs):
        return subprocess.CompletedProcess(args, 0, stdout=json.dumps(parent))

    monkeypatch.setattr(bits, "groups", lambda src: ours)
    monkeypatch.setattr(bits.subprocess, "run", fake_run)
    assert bits.main(["--parent", str(tmp_path)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == [bits.total(ours), f"{bits.total(parent)} (parent)",
                     "differs from the parent in 2 groups:",
                     "run_filter n=2 lmmr", "run_filter n=8 lmmr"]


_CANNED = {"simulate n=1 one path": "a", "run_filter n=1 one path lmmr jko": "b",
           "kalman_bucy_run n=1 3 seeds": "c"}


@pytest.mark.parametrize("recorded,code,lines", [
    ({**_CANNED, "run_filter n=2 one path lmmr jko": "d"}, 0,
     ["3 n = 1 groups match {file}"]),
    ({**_CANNED, "run_filter n=1 one path lmmr jko": "x"}, 1,
     ["differs from {file} in 1 groups:", "run_filter n=1 one path lmmr jko (differs)"]),
    ({k: v for k, v in _CANNED.items() if not k.startswith("kalman")}, 1,
     ["differs from {file} in 1 groups:", "kalman_bucy_run n=1 3 seeds (not recorded)"]),
], ids=["match", "mismatch", "missing"])
def test_check_compares_only_the_n1_groups_with_the_file(monkeypatch, capsys, tmp_path,
                                                        recorded, code, lines):
    bits = _bits()
    hashed = []
    monkeypatch.setattr(bits, "groups", lambda src, dims=bits.DIMS: hashed.append(dims) or _CANNED)
    file = tmp_path / "bits.json"
    file.write_text(json.dumps(recorded))
    assert bits.main(["--check", str(file)]) == code
    assert hashed == [(1,)]
    assert capsys.readouterr().out.splitlines() == [line.format(file=file) for line in lines]


def test_write_stores_every_group_and_check_reads_it_back(monkeypatch, capsys, tmp_path):
    bits = _bits()
    monkeypatch.setattr(bits, "groups", lambda src, dims=bits.DIMS: dict(_CANNED))
    file = tmp_path / "bits.json"
    assert bits.main(["--write", str(file)]) == 0
    assert json.loads(file.read_text()) == _CANNED
    assert bits.main(["--check", str(file)]) == 0
