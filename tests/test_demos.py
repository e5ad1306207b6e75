"""Every script under ``demos/`` runs to completion, and so does the README
quick start, printing what its comments say."""

import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
NUMBER = re.compile(r"-?\d+\.?\d*(?:e[-+]?\d+)?")


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_quick_start_prints_its_comments(capsys):
    # the last digits of a printed float depend on the LAPACK build, so
    # numbers are compared to 1e-12 relative and the rest as text
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Library quick start", 1)[1]
    block = block.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    comments = [line.split("#", 1)[1].strip()
                for line in block.splitlines() if line.startswith("print(")]
    assert len(printed) == len(comments)
    for out, comment in zip(printed, comments):
        assert NUMBER.sub("#", out).replace(" ", "") == \
            NUMBER.sub("#", comment).replace(" ", ""), (out, comment)
        for got, want in zip(NUMBER.findall(out), NUMBER.findall(comment)):
            assert float(got) == pytest.approx(float(want), rel=1e-12,
                                               abs=1e-12), (out, comment)
