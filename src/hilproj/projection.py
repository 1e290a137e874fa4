"""Closed-form metric projections and the distance function.

Every supported set variant admits an exact projection formula, owned by
its class in :mod:`hilproj.sets`:

* closed ball: identity inside, radial pull-back c + (r/||x-c||)(x-c) outside;
* positive cone: coordinate-wise clipping at zero;
* subspace span: sum of <x, u_i> u_i over the orthonormal generators;
* Bochner pointwise cone: the cone's clipping, per atom and per coordinate;
* Bochner constants: the constant function at the expectation.

Points with ||x-c|| in (r, r + 1e-12 r] are projected by the identity: the
band is relative to the radius, so it scales with the ball. The radial
formula is continuous at the sphere, both branches agree to 1e-12 r there,
and skipping the division avoids amplifying a near-zero denominator.

The Bochner sets are adapters: an argument in function form or in flattened
form is checked once and read as its (k, d) array of atom values, the flat
rule is applied, and the result comes back in the argument's form.

:func:`project_sequence` evaluates the same formulas on a whole batch at
once: the points are stacked into one array and projected by one array
expression per set variant (one product per row on a span, as
:func:`project` takes it), and handed back as read-only rows of the result.
"""

from __future__ import annotations

from . import bochner as bo
from .core import norm


def project(s, x):
    """Nearest point of the set. Bochner results mirror the input form."""
    return s._project(x)


def _gap(x, u) -> float:
    """||x - u||, for x and its projection u in the same form."""
    if isinstance(x, bo.BochnerFunction):
        return bo.bochner_distance(x, u)
    return norm(x - u)


def distance(s, x) -> float:
    """d(x, C) = ||x - P_C(x)||."""
    return _gap(x, project(s, x))


def project_sequence(s, xs) -> list:
    """Projection of every element; failures carry the offending index.

    Each element is first checked as :func:`project` checks it, with the
    same exception type and message prefixed by ``element i:``. The batch is
    then stacked and projected as one array, and the result equals
    element-wise :func:`project` bit for bit on every set. Points in the
    result are read-only rows of that array; Bochner results mirror each
    element's form.
    """
    xs = list(xs)
    return s._project_rows(xs) if xs else []
