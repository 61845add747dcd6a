import importlib
import os
import pkgutil
import re

import creditnet

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
MODULES = {m.name for m in pkgutil.iter_modules(creditnet.__path__)}


def test_readme_names_resolve():
    """Every backticked ``module.name`` README cites exists: README is the
    one prose statement of the modules' public names."""
    with open(README, encoding="utf-8") as fh:
        refs = re.findall(r"`(\w+)\.(\w+)`", fh.read())
    refs = [(m, name) for m, name in refs if m in MODULES and name != "py"]
    assert refs
    for module, name in refs:
        assert hasattr(importlib.import_module(f"creditnet.{module}"), name), \
            f"README cites {module}.{name}, which does not exist"
