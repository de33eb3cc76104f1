"""The README's Python examples and the demo script run as written."""

import pathlib
import re
import runpy

REPO = pathlib.Path(__file__).resolve().parent.parent


def test_readme_python_blocks_run_in_order(capsys):
    # the second block reuses the first one's system, model, prior and config
    blocks = re.findall(r"^```python\n(.*?)^```", (REPO / "README.md").read_text(),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 2
    namespace = {}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2 and float(printed[-1]) > 0.0


def test_demo_propagation_runs(capsys):
    runpy.run_path(str(REPO / "scripts" / "demo_propagation.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert out.splitlines()[0].split() == ["t", "mean", "exact", "cov", "exact"]
    assert "stationary covariance: 1.000000" in out
