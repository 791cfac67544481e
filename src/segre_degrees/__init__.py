"""Exact degrees and Euclidean distance degrees of Segre and Segre-Veronese
products of projective spaces, their dual hypersurfaces, and the asymptotic
formulas approximating them.

Everything exact runs on arbitrary-precision integers and rationals; the
floating-point surface is confined to the growth estimates in ``asympt``.
The package exports the names of the README's library example; everything
else is imported from its submodule (``hyperdet``, ``eddeg``, ``polar``,
``asympt``, ``combinat``).
"""

# imported only so that perfbench/spans.py can patch segre_degrees.truncpoly by name
from . import truncpoly  # noqa: F401
from .eddeg import frobenius_ed_degree, stabilization_onset
from .hyperdet import hyperdet_degree
from .polar import chern_data_projective_space_product, delta0_product_with_hypersurface

__version__ = "0.1.0"

__all__ = [
    "chern_data_projective_space_product",
    "delta0_product_with_hypersurface",
    "frobenius_ed_degree",
    "hyperdet_degree",
    "stabilization_onset",
]
