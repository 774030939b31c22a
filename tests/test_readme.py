"""The README's python blocks run as written, and its json configs pass."""

import json
import re
from pathlib import Path

import pytest

from eigenlasso import cli

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)
CONFIGS = re.findall(r"^```json\n(.*?)^```", README.read_text(), flags=re.M | re.S)


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_block_runs(index):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})


@pytest.mark.parametrize("index", range(len(CONFIGS)))
def test_readme_config_runs(index, tmp_path, monkeypatch):
    monkeypatch.delenv("EIGENLASSO_OUT", raising=False)
    config = tmp_path / "config.json"
    config.write_text(CONFIGS[index])
    command = json.loads(CONFIGS[index])["experiment"]
    assert cli.main([command, "--config", str(config), "--out", str(tmp_path)]) == 0
