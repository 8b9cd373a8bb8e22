"""The README's examples run against the current API."""

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from ifpw.coupling import config_from_dict

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def block(language):
    """The README's only fenced block in ``language``."""
    (code,) = re.findall(rf"```{language}\n(.*?)```", README, flags=re.S)
    return code


@pytest.fixture(scope="module")
def library_example():
    """Namespace and stdout of the README's Python example."""
    namespace = {}
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        exec(compile(block("python"), "README.md", "exec"), namespace)
    return namespace, stdout.getvalue()


def test_library_example_runs(library_example):
    namespace, stdout = library_example
    assert len(namespace["out"].snapshots) == 13  # 0 .. 120 s every 10 s
    assert stdout.startswith("AsymptoticResult(gamma=")


def test_scenario_json_is_the_library_example(library_example):
    namespace, _ = library_example
    assert config_from_dict(json.loads(block("json"))) == namespace["cfg"]
