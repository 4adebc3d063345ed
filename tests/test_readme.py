"""The README's library quick start runs as written, its config key table names every config field, and the
private names it cites exist."""

import functools
import importlib
import pkgutil
import re
from dataclasses import fields
from pathlib import Path

import swanopt
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


def test_cited_private_names_exist():
    # A private name in backticks, bare or dotted: `_free_points`, `optimize._stacked_ao`, `_UserStream.close`.
    names = set(re.findall(r"`((?:\w+\.)*_\w+(?:\.\w+)*)`", README.read_text(encoding="utf-8")))
    modules = [importlib.import_module(f"swanopt.{info.name}") for info in pkgutil.iter_modules(swanopt.__path__)]

    def resolves(name):
        for root in (swanopt, *modules):
            try:
                functools.reduce(getattr, name.split("."), root)
                return True
            except AttributeError:
                pass
        return False

    assert names
    assert sorted(name for name in names if not resolves(name)) == []
