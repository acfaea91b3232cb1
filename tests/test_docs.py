"""The README's examples: every ```python block runs under doctest."""

from __future__ import annotations

import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_pass_doctest():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.DOTALL | re.MULTILINE)
    assert blocks
    runner = doctest.DocTestRunner()
    report: list[str] = []
    for k, block in enumerate(blocks):
        test = doctest.DocTestParser().get_doctest(block, {}, f"README.md block {k}",
                                                   str(README), 0)
        assert test.examples, k
        runner.run(test, out=report.append)
    assert runner.failures == 0, "".join(report)
