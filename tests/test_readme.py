"""The Python examples in README.md run as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
EXAMPLES = re.findall(
    r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S
)


def test_every_python_block_is_collected():
    assert EXAMPLES
    assert len(EXAMPLES) == README.read_text(encoding="utf-8").count("```python")


@pytest.mark.parametrize("index", range(len(EXAMPLES)))
def test_readme_example_runs(index):
    code = compile(EXAMPLES[index], "README.md example %d" % (index + 1), "exec")
    exec(code, {"__name__": "readme_example"})
