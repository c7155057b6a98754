"""Modules registered at import, executed on first attribute access.

``validate`` and ``synth`` compute nothing numeric, so importing the package
must pay neither for numpy nor for the numeric layers. The numeric layers
take ``np`` from here; numpy's own code runs the first time one of them
touches ``np.<anything>``. ``cli`` holds the layer modules the same way.

numpy stays lazy even though ``cli`` already defers the layers: looking up
a function in a layer module runs that layer's code. ``perfbench/traced.py``
does so for each function it wraps, before the command runs, so with an
eager numpy its traced ``validate`` would load numpy too (~0.27 s and
~32 MiB peak, against ~0.15 s and ~19 MiB, on a 2-vCPU host).
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
