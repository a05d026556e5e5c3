"""The README's library example runs as written, and its config block is the default."""

import contextlib
import io
import re
from pathlib import Path

import yaml

from echograd.config import DEFAULT_CONFIG

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(blocks[0], str(README), "exec"), {})
    # the example prints the estimate's distance from the oracle
    assert float(printed.getvalue()) < 1e-6


def test_readme_config_block_is_the_default_config():
    blocks = re.findall(r"```yaml\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    assert yaml.safe_load(blocks[0]) == DEFAULT_CONFIG
