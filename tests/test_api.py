"""The package surface: the README example runs as written, ``gpcdec``
exports exactly the names in its ``__all__``, and every name a submodule
lists in its ``__all__`` exists."""

import importlib
import pkgutil
import re
from pathlib import Path
from types import ModuleType

import gpcdec

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


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
