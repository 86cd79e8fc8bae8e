"""Package layout: what each module exports."""

import importlib
import pkgutil

import ntgof


def test_every_name_in_all_exists():
    # a name dropped from a module but left in its __all__ breaks
    # ``from module import *`` only when someone tries it
    modules = [ntgof] + [
        importlib.import_module(f"ntgof.{info.name}")
        for info in pkgutil.iter_modules(ntgof.__path__)
        if info.name != "__main__"
    ]
    checked = 0
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ names missing {name!r}"
            checked += 1
    assert checked > 50
