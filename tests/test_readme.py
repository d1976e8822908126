"""The README's Python examples run as written, and the code it names exists."""

import importlib
import re
from pathlib import Path

import pytest

import rhoq

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)
MODULES = sorted(path.stem for path in Path(rhoq.__file__).parent.glob("[!_]*.py"))
#: every backticked `<module>.<name>`, `rhoq.<module>.<name>` or `<module>.<name>(...)`
#: whose module is one of rhoq's
NAME = r"`(?:rhoq\.)?((?:%s)(?:\.\w+)+)(?:\(.*?\))?`" % "|".join(MODULES)
NAMES = sorted(set(re.findall(NAME, TEXT)))


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_block_runs(source):
    exec(compile(source, str(README), "exec"), {"__name__": "readme"})


def test_readme_names_code():
    assert NAMES


@pytest.mark.parametrize("name", NAMES)
def test_named_code_exists(name):
    module, *attrs = name.split(".")
    obj = importlib.import_module("rhoq." + module)
    for attr in attrs:
        obj = getattr(obj, attr)
