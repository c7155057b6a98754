"""Modules registered at import, executed on first attribute access.

``validate`` and ``synth`` compute nothing numeric, so importing the package
must pay neither for numpy nor for the numeric layers. The numeric layers
take ``np`` from here; numpy's own code runs the first time one of them
touches ``np.<anything>``. ``cli`` holds the layer modules the same way.
"""

import importlib.util
import sys


def lazy_import(name: str):
    """``name`` as a module that runs its code on first attribute access.

    A missing module fails here, at import. The module is registered in
    ``sys.modules`` and, for a submodule, on its package, as an import
    statement would register it.
    """
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
    package, _, child = name.rpartition(".")
    if package:
        setattr(sys.modules[package], child, module)
    return module


np = lazy_import("numpy")
