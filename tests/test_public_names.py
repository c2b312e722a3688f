"""Every module of the package exports only names it defines or imports."""

import importlib
import pkgutil

import fso_secrecy


def test_every_name_in_each_module_all_resolves():
    modules = [fso_secrecy] + [
        importlib.import_module(f"fso_secrecy.{info.name}")
        for info in pkgutil.iter_modules(fso_secrecy.__path__)
    ]
    missing = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in module.__all__
        if not hasattr(module, name)
    ]
    assert len(modules) == 7
    assert missing == []
