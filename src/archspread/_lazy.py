"""numpy, imported on first attribute access.

``validate`` and ``synth`` compute nothing numeric, so importing the package
must not pay for numpy. The numeric layers take ``np`` from here; numpy's own
code runs the first time one of them touches ``np.<anything>``.
"""

import importlib.util
import sys


def _lazy_import(name: str):
    module = sys.modules.get(name)
    if module is not None:
        return module
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    loader.exec_module(module)
    return module


np = _lazy_import("numpy")
