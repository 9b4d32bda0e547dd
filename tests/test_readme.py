"""The README's Python blocks run as written, with warnings as errors, so
the quickstart keeps to the package's names and fields."""

import pathlib
import re
import warnings

import pytest

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_has_a_python_block():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(block):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(block, str(README), "exec"), {"__name__": "readme"})
