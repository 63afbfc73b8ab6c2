"""Every name a frontlab module lists in __all__ must exist."""

import importlib
import pkgutil

import frontlab


def test_every_exported_name_resolves():
    modules = {info.name: importlib.import_module(f"frontlab.{info.name}")
               for info in pkgutil.iter_modules(frontlab.__path__)}
    assert {"cli", "front", "model", "norms", "sim", "spectral"} <= set(modules)
    missing = [f"{mod.__name__}.{name}" for mod in (frontlab, *modules.values())
               for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
