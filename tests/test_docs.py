"""The README's examples: every ```python block runs under doctest, and every
command of the ```sh block under "## CLI" runs through cli.main."""

from __future__ import annotations

import doctest
import json
import re
import shlex
from pathlib import Path

from nortonalg.cli import main

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


def test_readme_cli_examples_exit_0(tmp_path, monkeypatch, capsys):
    block = re.search(r"^## CLI\n.*?^```sh\n(.*?)^```", README.read_text(encoding="utf-8"),
                      re.DOTALL | re.MULTILINE).group(1)
    monkeypatch.chdir(tmp_path)  # idempotents --export writes its file here
    for name in ("NORTON_SEED", "NORTON_BUDGET"):
        monkeypatch.delenv(name, raising=False)
    lines = block.splitlines()
    assert len(lines) == 9
    commented = {}
    for line in lines:
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        assert argv[0] == "nortonalg", line
        assert main(argv[1:]) == 0, line
        out = capsys.readouterr().out
        if comment:
            commented[argv[1]] = (comment.strip(), json.loads(out))
    assert (tmp_path / "idems.json").is_file()
    assert commented.keys() == {"spectrum", "nonassoc"}
    comment, payload = commented["spectrum"]
    assert comment == "4 x1, 1 x4, -2 x4"
    assert ", ".join(f"{row['eigenvalue']} x{row['multiplicity']}"
                     for row in payload["spectrum"]) == comment
    comment, payload = commented["nonassoc"]
    assert comment == "1,2,5,10,21,42"
    assert ",".join(str(row["class_count"]) for row in payload["reports"]) == comment
