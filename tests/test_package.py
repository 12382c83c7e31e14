"""The package's public names."""

import importlib
import pkgutil

import gbmsim


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
