import dataclasses
import importlib
import os
import pkgutil
import re

import creditnet

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
MODULES = {m.name for m in pkgutil.iter_modules(creditnet.__path__)}


def _resolves(obj, attrs) -> bool:
    """Whether ``obj.a.b...`` exists; a dataclass field with no default is
    not a class attribute, so the last name may also be a field."""
    for idx, attr in enumerate(attrs):
        if hasattr(obj, attr):
            obj = getattr(obj, attr)
        elif idx == len(attrs) - 1 and dataclasses.is_dataclass(obj):
            return attr in {f.name for f in dataclasses.fields(obj)}
        else:
            return False
    return True


def test_readme_names_resolve():
    """Every backticked ``module.name`` or ``module.Class.attr`` README
    cites exists: README is the one prose statement of the modules' public
    names."""
    with open(README, encoding="utf-8") as fh:
        refs = re.findall(r"`(\w+)((?:\.\w+)+)`", fh.read())
    refs = [(m, chain.split(".")[1:]) for m, chain in refs
            if m in MODULES and chain != ".py"]
    assert refs
    for module, attrs in refs:
        assert _resolves(importlib.import_module(f"creditnet.{module}"),
                         attrs), \
            f"README cites {module}.{'.'.join(attrs)}, which does not exist"
