"""Exact degrees and Euclidean distance degrees of Segre and Segre-Veronese
products of projective spaces, their dual hypersurfaces, and the asymptotic
formulas approximating them.

Everything exact runs on arbitrary-precision integers and rationals; the
floating-point surface is confined to the growth estimates in ``asympt``.
The package exports the names of the README's library example; everything
else is imported from its submodule (``hyperdet``, ``eddeg``, ``polar``,
``asympt``, ``combinat``).

Each submodule but ``cli`` is registered lazily through
``importlib.util.LazyLoader``: it is in ``sys.modules`` and a package attribute
from the start, so the benchmark tracer (``perfbench/spans.py``) finds every
module it patches, ``truncpoly`` included, but its body runs only when one of
its attributes is first read.  A request thus runs only the modules its route
reads.  ``cli`` imports normally: runpy warns when ``python -m`` finds the
module it runs already in ``sys.modules``.
"""

import importlib.util
import sys

for _name in ("asympt", "combinat", "eddeg", "hyperdet", "polar", "truncpoly"):
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    sys.modules[_spec.name] = globals()[_name] = _module = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(_module)  # makes the module lazy; its body runs on first read
del _name, _spec, _module

__version__ = "0.1.0"

# exported name -> the submodule that defines it
_EXPORTS = {
    "chern_data_projective_space_product": "polar",
    "delta0_product_with_hypersurface": "polar",
    "frobenius_ed_degree": "eddeg",
    "hyperdet_degree": "hyperdet",
    "stabilization_onset": "eddeg",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> object:
    """An exported name, read from its submodule, which loads it (PEP 562)."""
    if name in _EXPORTS:
        return getattr(globals()[_EXPORTS[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
