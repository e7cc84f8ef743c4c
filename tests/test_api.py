"""The package surface: the README example runs as written, ``gpcdec``
exports exactly the names in its ``__all__``, and every name a submodule
lists in its ``__all__`` exists."""

import importlib
import pkgutil
import re
import shlex
from pathlib import Path
from types import ModuleType

import gpcdec
from gpcdec.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_readme_cli_commands_parse():
    """Every ``gpcdec`` command of the README's CLI block parses against
    the CLI's parser; nothing is run."""
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", README.read_text(), re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("gpcdec ")]
    assert len(commands) == 8
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)


def test_all_names_resolve():
    for name in gpcdec.__all__:
        assert getattr(gpcdec, name) is not None, name
    public = {
        name for name, value in vars(gpcdec).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert public == set(gpcdec.__all__)


def test_submodule_all_names_resolve():
    listed = []
    for info in pkgutil.iter_modules(gpcdec.__path__):
        module = importlib.import_module(f"gpcdec.{info.name}")
        names = getattr(module, "__all__", None)
        if names is None:
            continue
        listed.append(info.name)
        for name in names:
            assert hasattr(module, name), f"gpcdec.{info.name}.{name}"
    assert {"analysis", "engine", "layout", "postprocess", "sim"} <= set(listed)
