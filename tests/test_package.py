"""The package's public names."""

import importlib
import pkgutil
import re
from pathlib import Path

import gbmsim

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_name_in_each_modules_all_exists():
    # A stale name in __all__ still imports cleanly; only a star import of its
    # module fails.  __main__ is skipped because importing it runs the CLI.
    names = [m.name for m in pkgutil.iter_modules(gbmsim.__path__) if m.name != "__main__"]
    missing = {}
    for name in names:
        module = importlib.import_module(f"gbmsim.{name}")
        absent = [item for item in getattr(module, "__all__", ()) if not hasattr(module, item)]
        if absent:
            missing[name] = absent
    assert "kinetics" in names and missing == {}


def test_every_name_in_the_readme_python_api_exists():
    # The README's example calls the package as ``g.<name>``; a name removed
    # from the package would leave the example broken without any other test
    # noticing.
    section = README.read_text().split("## Python API", 1)[1]
    block = section.split("```python", 1)[1].split("```", 1)[0]
    names = set(re.findall(r"\bg\.([A-Za-z_]\w*)", block))
    assert "run" in names
    assert sorted(name for name in names if not hasattr(gbmsim, name)) == []
