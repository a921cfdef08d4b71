"""The README's Python example runs as written, and its config example parses."""

import contextlib
import io
import json
import re
from dataclasses import fields, is_dataclass
from pathlib import Path

from avqls import RunConfig, config_from_dict

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(language: str) -> str:
    blocks = re.findall(rf"```{language}\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1
    return blocks[0]


def test_readme_python_example_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(readme_block("python"), str(README), "exec"), {})
    assert out.getvalue().startswith("4 steps;")


def test_readme_config_example_parses_and_names_every_field():
    raw = json.loads(re.sub(r"//.*", "", readme_block("jsonc")))
    config = config_from_dict(raw)
    assert set(raw) == {f.name for f in fields(RunConfig)}
    for f in fields(config):
        section = getattr(config, f.name)
        if is_dataclass(section):
            assert set(raw[f.name]) == {g.name for g in fields(section)}, f.name
