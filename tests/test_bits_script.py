"""scripts/bits.py: one SHA-256 over the bits of filter runs, reference runs
and simulated paths, the same on every run, its comparison against a
parent checkout, and its per-group digests in a file (--write, --check)."""

import importlib.util
import json
import os
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
_CANNED_N2 = {"run_filter n=2 one path lmmr jko": "d"}


def _canned_check(monkeypatch, capsys, file, core):
    """bits.main(["--check", file]) on the canned digests, with this host's
    OpenBLAS core read as core: (exit code, the dims hashed, printed lines)."""
    bits = _bits()
    hashed = []

    def fake_groups(src, dims=bits.DIMS):
        hashed.append(dims)
        return {**_CANNED, **(_CANNED_N2 if dims == bits.DIMS else {})}

    monkeypatch.setattr(bits, "groups", fake_groups)
    monkeypatch.setattr(bits, "openblas_core", lambda: core)
    code = bits.main(["--check", str(file)])
    return code, hashed, capsys.readouterr().out.splitlines()


_SKIPPED = "n >= 2 groups not checked: OpenBLAS core SkylakeX here, None in {file}"


@pytest.mark.parametrize("recorded,code,lines", [
    ({**_CANNED, "run_filter n=2 one path lmmr jko": "d"}, 0,
     [_SKIPPED, "3 n = 1 groups match {file}"]),
    ({**_CANNED, "run_filter n=1 one path lmmr jko": "x"}, 1,
     [_SKIPPED, "differs from {file} in 1 groups:", "run_filter n=1 one path lmmr jko (differs)"]),
    ({k: v for k, v in _CANNED.items() if not k.startswith("kalman")}, 1,
     [_SKIPPED, "differs from {file} in 1 groups:", "kalman_bucy_run n=1 3 seeds (not recorded)"]),
], ids=["match", "mismatch", "missing"])
def test_check_compares_only_the_n1_groups_with_the_file(monkeypatch, capsys, tmp_path,
                                                        recorded, code, lines):
    # a file that records no core checks only the groups every kernel reproduces
    file = tmp_path / "bits.json"
    file.write_text(json.dumps(recorded))
    assert _canned_check(monkeypatch, capsys, file, "SkylakeX") == (
        code, [(1,)], [line.format(file=file) for line in lines])


@pytest.mark.parametrize("core,recorded,code,lines", [
    ("SkylakeX", {"OpenBLAS core": "SkylakeX", **_CANNED, **_CANNED_N2}, 0,
     ["4 groups (OpenBLAS core SkylakeX) match {file}"]),
    ("SkylakeX", {"OpenBLAS core": "SkylakeX", **_CANNED, "run_filter n=2 one path lmmr jko": "x"},
     1, ["differs from {file} in 1 groups:", "run_filter n=2 one path lmmr jko (differs)"]),
    ("Haswell", {"OpenBLAS core": "SkylakeX", **_CANNED, "run_filter n=2 one path lmmr jko": "x"},
     0, ["n >= 2 groups not checked: OpenBLAS core Haswell here, SkylakeX in {file}",
         "3 n = 1 groups match {file}"]),
    (None, {"OpenBLAS core": None, **_CANNED, **_CANNED_N2}, 0,
     ["n >= 2 groups not checked: OpenBLAS core None here, None in {file}",
      "3 n = 1 groups match {file}"]),
], ids=["core-matches", "core-matches-n2-differs", "core-differs", "core-unread"])
def test_check_hashes_the_n2_groups_only_under_the_recorded_core(monkeypatch, capsys, tmp_path,
                                                                core, recorded, code, lines):
    file = tmp_path / "bits.json"
    file.write_text(json.dumps(recorded))
    every = core is not None and core == recorded["OpenBLAS core"]
    assert _canned_check(monkeypatch, capsys, file, core) == (
        code, [_bits().DIMS if every else (1,)], [line.format(file=file) for line in lines])


def test_write_stores_every_group_and_check_reads_it_back(monkeypatch, capsys, tmp_path):
    # with the core, so a host whose core matches checks every group
    bits = _bits()
    monkeypatch.setattr(bits, "groups", lambda src, dims=bits.DIMS: {**_CANNED, **_CANNED_N2})
    monkeypatch.setattr(bits, "openblas_core", lambda: "Haswell")
    file = tmp_path / "bits.json"
    assert bits.main(["--write", str(file)]) == 0
    assert json.loads(file.read_text()) == {"OpenBLAS core": "Haswell", **_CANNED, **_CANNED_N2}
    assert bits.main(["--check", str(file)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        f"4 groups (OpenBLAS core Haswell) match {file}")


def test_the_core_is_read_off_numpys_openblas_and_follows_openblas_coretype():
    # None where numpy bundles no OpenBLAS; where it does, the variable picks the kernel
    here = _bits().openblas_core()
    assert here is None or (isinstance(here, str) and here)
    code = f"import sys; sys.path.insert(0, {str(SCRIPT.parent)!r}); import bits; " \
           "print(bits.openblas_core())"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "OPENBLAS_CORETYPE": "Haswell"}, timeout=60)
    assert out.stdout.strip() == ("None" if here is None else "Haswell"), out.stderr
