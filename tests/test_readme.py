"""The README's library quick start runs as written, and its config key table names every config field."""

import re
from dataclasses import fields
from pathlib import Path

from swanopt.harness import ExperimentConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    best_level, best_rate, bound = capsys.readouterr().out.split()
    assert 1 <= int(best_level) <= 20
    assert 0 < float(best_rate) <= float(bound)


def test_key_table_names_every_config_field_once():
    table = README.read_text(encoding="utf-8").split("| key | default | meaning |\n", 1)[1].split("\n\n", 1)[0]
    keys = [key for row in table.splitlines()[1:] for key in re.findall(r"`(\w+)`", row.split("|")[1])]
    assert sorted(keys) == sorted(f.name for f in fields(ExperimentConfig))
