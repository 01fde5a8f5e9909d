"""pshdef: plurisubharmonic defining functions for pseudoconvex boundaries.

Exact Wirtinger polynomial algebra, Levi forms, three-valued dominance
probing, a staged multiplier-construction engine, and numeric boundary
verification, plus the real-convex analog of the whole pipeline.
"""

from .gaussrat import GaussianRational
from .wirtinger import (
    WPoly,
    abs2,
    canonical_str,
    im_w,
    im_z,
    re_w,
    re_z,
    realify,
)
from .cr import (
    DefiningFunction,
    NormalFormError,
    gradient_z_sq,
    hessian_entries,
    hessian_minor_det,
    levi_form,
    levi_origin_value,
    validate_normal_form,
)

__version__ = "0.1.0"
