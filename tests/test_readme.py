"""The README's ```python blocks, run through doctest.

`python -m doctest README.md` would read each closing fence as expected
output, so the blocks are parsed out first and the README stays plain
Markdown. Each block runs on its own, with fresh globals.
"""

import doctest
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCK = re.compile(r"^```python\n(.*?)^```$", re.M | re.S)


def python_blocks():
    text = README.read_text(encoding="utf-8")
    return [(text.count("\n", 0, m.start(1)), m.group(1)) for m in BLOCK.finditer(text)]


BLOCKS = python_blocks()


def test_readme_has_python_blocks():
    assert len(BLOCKS) == 2


@pytest.mark.parametrize(
    "lineno, source", [pytest.param(*b, id=f"line-{b[0] + 1}") for b in BLOCKS]
)
def test_readme_block(lineno, source):
    name = f"README.md:{lineno + 1}"
    test = doctest.DocTestParser().get_doctest(source, {}, name, str(README), lineno)
    report = []
    failed, attempted = doctest.DocTestRunner(verbose=False).run(test, out=report.append)
    assert attempted > 0
    assert failed == 0, "".join(report)
