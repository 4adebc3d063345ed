"""The README's library quick start runs as written against the top-level package names."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    best_level, best_rate, bound = capsys.readouterr().out.split()
    assert 1 <= int(best_level) <= 20
    assert 0 < float(best_rate) <= float(bound)
