"""Trigonometric coefficient vectors for L2(-pi, pi).

The orthonormal system is indexed 0, 1, 2, ... as

    e_0(t) = 1/sqrt(2 pi),
    e_{2m-1}(t) = cos(m t)/sqrt(pi),   m = 1, 2, ...
    e_{2m}(t)   = sin(m t)/sqrt(pi),

so a function is represented by its first n coefficients <func, e_k>,
computed together by adaptive Gauss-Legendre quadrature. Projections and
derivatives on these coefficient vectors are the ordinary ball formulas:
truncating to n terms identifies the span with a coordinate space.

The quadrature runs on numpy alone, so neither importing hilproj nor
computing coefficients loads scipy.
"""

from __future__ import annotations

import warnings

import numpy as np

from .core import HilbertPoint

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(20)  # the 20-point rule on [-1, 1]


def _rows(n_terms: int, t) -> np.ndarray:
    """e_0(t), ..., e_{n_terms-1}(t), one row each over the shape of t."""
    t = np.asarray(t, dtype=np.float64)
    k = np.arange(n_terms).reshape((-1,) + (1,) * t.ndim)
    mt = (k + 1) // 2 * t  # m t, for e_{2m-1} = cos(m t) and e_{2m} = sin(m t), over sqrt(pi)
    rows = np.where(k % 2 == 1, np.cos(mt), np.sin(mt)) / np.sqrt(np.pi)
    rows[:1] = 1.0 / np.sqrt(2.0 * np.pi)  # a slice, so no terms gives no rows
    return rows


def basis_function(index: int):
    """The index-th orthonormal trigonometric basis function as a callable."""
    if index < 0:
        raise ValueError("basis index must be nonnegative")
    return lambda t: _rows(index + 1, t)[index]


def trig_coefficients(func, n_terms: int) -> HilbertPoint:
    """First n_terms coefficients of func against the trigonometric system.

    One adaptive pass integrates them all: a panel is bisected until its
    integrals agree with the sum over its two halves within 1e-13 of the
    coefficients' size, and that sum is kept. Past 200 panels the estimate
    returns with a RuntimeWarning. A non-finite func value raises ValueError.
    """
    if n_terms < 1:
        raise ValueError("n_terms must be a positive integer")
    # [-pi, pi] is compared with nothing, so always halved; a round evaluates the open panels' halves
    lo, hi, coarse = np.array([-np.pi]), np.array([np.pi]), np.inf
    kept, count = np.zeros(n_terms + 1), 1
    while lo.size:
        mid = (lo + hi) / 2
        lo, hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])  # the left halves, then the right
        half = (hi - lo)[:, None] / 2
        ts = (lo[:, None] + half) + half * _NODES
        # func takes one scalar t per node, as scipy's quad calls it, so math.cos works
        wf = np.fromiter(map(func, ts.ravel().tolist()), np.float64, ts.size).reshape(ts.shape)
        if not np.isfinite(wf).all():
            raise ValueError("coeffs must be finite")
        wf *= half * _WEIGHTS
        # per half: int |func| / 8, finite even where int |func| (at most 2 pi max |func|) is not; then int func e_k
        halves = np.column_stack([np.abs(wf / 8).sum(axis=1), (_rows(n_terms, ts) * wf).sum(axis=-1).T])
        fine = halves[: mid.size] + halves[mid.size :]
        # 1e-13 of the coefficients' size int |func| / sqrt(pi), which bounds every |c_k|; 8 undoes the scale
        split = np.abs(fine - coarse)[:, 1:].max(axis=1) > 8e-13 / np.sqrt(np.pi) * (kept[0] + fine[:, 0].sum())
        count += split.sum()
        if count > 200:  # as quad's limit=200, so that every func terminates
            warnings.warn("trig_coefficients stopped at 200 panels, above its error bound",
                          RuntimeWarning, stacklevel=2)
            split[:] = False
        kept += fine[~split].sum(axis=0)
        lo, hi, coarse = (z[np.tile(split, 2)] for z in (lo, hi, halves))
    return HilbertPoint(kept[1:])


def evaluate(coeffs: HilbertPoint, ts) -> np.ndarray:
    """Evaluate the truncated series sum_k c_k e_k at the given points."""
    return np.tensordot(coeffs.coeffs, _rows(coeffs.dim, ts), axes=1)


__all__ = sorted(n for n, obj in globals().items() if n[0] != "_" and getattr(obj, "__module__", None) == __name__)
