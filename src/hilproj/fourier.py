"""Trigonometric coefficient vectors for L2(-pi, pi).

The orthonormal system is indexed 0, 1, 2, ... as

    e_0(t) = 1/sqrt(2 pi),
    e_{2m-1}(t) = cos(m t)/sqrt(pi),   m = 1, 2, ...
    e_{2m}(t)   = sin(m t)/sqrt(pi),

so a function is represented by its first n coefficients <func, e_k>,
computed by adaptive quadrature. Projections and derivatives on these
coefficient vectors are the ordinary ball formulas: truncating to n terms
identifies the span with a coordinate space.

scipy is imported inside trig_coefficients, the only function that
integrates, so importing hilproj or its CLI does not load it.
"""

from __future__ import annotations

import numpy as np

from .core import HilbertPoint


def basis_function(index: int):
    """The index-th orthonormal trigonometric basis function as a callable."""
    if index < 0:
        raise ValueError("basis index must be nonnegative")
    if index == 0:
        c = 1.0 / np.sqrt(2.0 * np.pi)
        return lambda t: c * np.ones_like(np.asarray(t, dtype=np.float64))
    m = (index + 1) // 2
    if index % 2 == 1:
        return lambda t: np.cos(m * np.asarray(t, dtype=np.float64)) / np.sqrt(np.pi)
    return lambda t: np.sin(m * np.asarray(t, dtype=np.float64)) / np.sqrt(np.pi)


def trig_coefficients(func, n_terms: int) -> HilbertPoint:
    """First n_terms coefficients of func against the trigonometric system."""
    if n_terms < 1:
        raise ValueError("n_terms must be a positive integer")
    from scipy.integrate import quad

    coeffs = np.empty(n_terms)
    for k in range(n_terms):
        e_k = basis_function(k)
        val, _ = quad(lambda t: func(t) * float(e_k(t)), -np.pi, np.pi, limit=200)
        coeffs[k] = val
    return HilbertPoint(coeffs)


def evaluate(coeffs: HilbertPoint, ts) -> np.ndarray:
    """Evaluate the truncated series sum_k c_k e_k at the given points."""
    ts = np.asarray(ts, dtype=np.float64)
    acc = np.zeros_like(ts)
    for k, c in enumerate(coeffs.coeffs):
        if c != 0.0:
            acc = acc + c * basis_function(k)(ts)
    return acc
