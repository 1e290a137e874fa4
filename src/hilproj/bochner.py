"""Square-integrable vector-valued functions over a finite probability space.

The space L2(S; H) is discretized: S is a finite list of atoms with strictly
positive weights summing to one, and a function assigns one coefficient
vector of common dimension d to each atom. A :class:`BochnerFunction` over
k atoms stores them as one read-only (k, d) array, row s the value at atom
s. Norm and inner product are the weighted sums

    ||f||^2 = sum_s mu(s) ||f(s)||^2,
    <f, g>  = sum_s mu(s) <f(s), g(s)>,

which is the atomic form of the Bochner integrals. The function flattens
(:func:`flatten`) to one k*d vector, atom-major, whose weights repeat each
atom weight d times: the same array read as a vector, not a copy, and
:func:`unflatten` reads it back. That flattening is an isometry, so
closed-form facts about balls and cones apply verbatim to the Bochner
constructions. This module is the function space only: it knows no set. The
pointwise cone and the constants of :mod:`hilproj.sets` are built on it, and
their E(f) is the kernel behind :func:`expectation`, so E(f) has one
definition.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import HilbertPoint, _dot, _norm, _proven, _trusted, _trusted_rows
from .errors import (
    DimensionMismatch,
    EmptySubset,
    NoHalfMeasureSubset,
    SpaceMismatch,
    UnknownAtom,
    WeightMismatch,
)

_WEIGHT_SUM_TOL = 1e-12
_SUBSET_SEARCH_LIMIT = 22


@dataclass(frozen=True, eq=False)
class DiscreteProbabilitySpace:
    """Finite measure space: atom ids plus strictly positive weights.

    Weights must sum to 1 within 1e-12; atom ids must be unique.
    """

    atom_ids: tuple
    weights: np.ndarray

    def __post_init__(self):
        ids = tuple(str(a) for a in self.atom_ids)
        if len(ids) == 0:
            raise ValueError("a probability space needs at least one atom")
        if len(set(ids)) != len(ids):
            raise ValueError("atom ids must be unique")
        object.__setattr__(self, "atom_ids", ids)
        w = np.asarray(self.weights, dtype=np.float64)
        if w.shape != (len(ids),):
            raise ValueError("one weight per atom required")
        if not np.all(np.isfinite(w)) or np.any(w <= 0.0):
            raise ValueError("atom weights must be finite and strictly positive")
        if abs(float(w.sum()) - 1.0) > _WEIGHT_SUM_TOL:
            raise ValueError(f"atom weights sum to {w.sum()}, not 1")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "_kept", {})  # what _kept builds once: flat weights, flat sets

    def __reduce__(self):  # copies and pickles rebuild through the constructor: an empty _kept
        return DiscreteProbabilitySpace, (self.atom_ids, self.weights)

    @property
    def n_atoms(self) -> int:
        return len(self.atom_ids)

    def index_of(self, atom_id: str) -> int:
        try:
            return self.atom_ids.index(atom_id)
        except ValueError:
            raise UnknownAtom(f"atom {atom_id!r} not in space") from None

    def same_space(self, other: "DiscreteProbabilitySpace") -> bool:
        return other is self or (
            self.atom_ids == other.atom_ids and np.array_equal(self.weights, other.weights)
        )


@dataclass(frozen=True, eq=False, init=False)
class BochnerFunction:
    """A function over the atoms of ``space``: one read-only (k, d) float64 array.

    Row s of ``array`` is the value at atom s. The constructor takes one
    unweighted HilbertPoint per atom, all of a common dimension, and copies
    their coefficients into the array once.
    """

    space: DiscreteProbabilitySpace
    array: np.ndarray

    def __init__(self, space: DiscreteProbabilitySpace, values=()):
        values = tuple(values)
        if len(values) != space.n_atoms:
            raise ValueError("one value per atom required")
        dims = {v.dim for v in values}
        if len(dims) != 1:
            raise ValueError("per-atom values must share one dimension")
        if any(v.weights is not None for v in values):
            raise ValueError("per-atom values must be unweighted")
        array = np.concatenate([v.coeffs for v in values]).reshape(len(values), -1)
        array.setflags(write=False)
        self.__dict__.update(space=space, array=array)

    def __reduce__(self):  # copy.deepcopy and pickle rebuild through the constructor
        return BochnerFunction, (self.space, self.values)

    @property
    def values(self) -> tuple:
        """One unweighted point per atom, each a read-only row of ``array``."""
        return tuple(_trusted_rows(self.array, itertools.repeat(None)))

    @property
    def point_dim(self) -> int:
        return self.array.shape[1]

    def value_at(self, atom_id: str) -> HilbertPoint:
        return _proven(self.array[self.space.index_of(atom_id)], None)

    @classmethod
    def from_dict(cls, space: DiscreteProbabilitySpace, values_by_id: dict) -> "BochnerFunction":
        missing = [a for a in space.atom_ids if a not in values_by_id]
        if missing:
            raise UnknownAtom(f"missing values for atoms {missing}")
        extra = [a for a in values_by_id if a not in space.atom_ids]
        if extra:
            raise UnknownAtom(f"values given for unknown atoms {extra}")
        return cls(space, tuple(values_by_id[a] for a in space.atom_ids))


def _function(space: DiscreteProbabilitySpace, array: np.ndarray) -> BochnerFunction:
    """A function on a checked read-only (k, d) array: no copy, no check."""
    f = object.__new__(BochnerFunction)
    f.__dict__.update(space=space, array=array)
    return f


def check_same(f: BochnerFunction, g: BochnerFunction):
    """Require two functions over a common probability space and per-atom dimension."""
    for h, other in ((f, g), (g, f)):
        if not isinstance(h, BochnerFunction):  # worded as a Bochner set words a non-function
            k = other.space.n_atoms if isinstance(other, BochnerFunction) else "k"
            raise DimensionMismatch(f"functions over {k} atoms got {type(h).__name__}")
    if not f.space.same_space(g.space):
        raise SpaceMismatch("functions live over different probability spaces")
    if f.point_dim != g.point_dim:
        raise SpaceMismatch(
            f"per-atom dimensions {f.point_dim} and {g.point_dim} differ"
        )


def simple_function(space: DiscreteProbabilitySpace, atom_subset, x: HilbertPoint) -> BochnerFunction:
    """Indicator tensor 1_A (x) x: value x on atoms of A, zero elsewhere."""
    subset = list(atom_subset)
    if not subset:
        raise EmptySubset("subset of atoms must be nonempty")
    indices = {space.index_of(a) for a in subset}
    zero = HilbertPoint(np.zeros(x.dim))
    return BochnerFunction(
        space, tuple(x if i in indices else zero for i in range(space.n_atoms))
    )


def constant_function(space: DiscreteProbabilitySpace, x: HilbertPoint) -> BochnerFunction:
    return BochnerFunction(space, tuple(x for _ in range(space.n_atoms)))


def subset_measure(space: DiscreteProbabilitySpace, atom_subset) -> float:
    """mu(A) of the set of atoms A: a repeated atom counts once, summed in first-appearance order."""
    subset = list(atom_subset)
    if not subset:
        raise EmptySubset("subset of atoms must be nonempty")
    indices = dict.fromkeys(space.index_of(a) for a in subset)
    return float(sum(space.weights[i] for i in indices))


def bochner_inner(f: BochnerFunction, g: BochnerFunction) -> float:
    """<f, g> = sum_s mu(s) <f(s), g(s)>, summed atom by atom."""
    check_same(f, g)
    return float(sum(w * _dot(None, a, b) for w, a, b in zip(f.space.weights, f.array, g.array)))


def bochner_norm(f: BochnerFunction) -> float:
    return float(np.sqrt(max(bochner_inner(f, f), 0.0)))


def _mean(space: DiscreteProbabilitySpace, values: np.ndarray) -> np.ndarray:
    """E over the atom axis, (..., k, d) -> (..., d), summed atom by atom."""
    k, d = values.shape[-2:]  # the weights as one kept (k, d) array: no broadcast along d
    w = _kept(space, (_mean, d), lambda: np.repeat(space.weights, d).reshape(k, d))
    return np.add.accumulate(w * values, axis=-2)[..., -1, :]


def expectation(f: BochnerFunction) -> HilbertPoint:
    """E(f) = sum_s mu(s) f(s), an unweighted point of dimension d."""
    return _trusted(_mean(f.space, f.array), None)


def flatten(f: BochnerFunction) -> HilbertPoint:
    """Atom-major coefficient vector with each atom weight repeated d times: f.array as k*d."""
    return _proven(f.array.reshape(-1), flat_weights(f.space, f.point_dim))


def flat_weights(space: DiscreteProbabilitySpace, point_dim: int) -> np.ndarray:
    """Each atom weight repeated point_dim times, read-only: one array per space and point_dim."""
    w = space._kept.get(point_dim)  # no builder made on this hot path, unlike _kept
    if w is None:
        w = np.repeat(space.weights, point_dim)
        w.setflags(write=False)
        space._kept[point_dim] = w
    return w


def _kept(space: DiscreteProbabilitySpace, key: tuple, build):
    """build(), made once per space and key (user, d), and kept beside the flat weights of d."""
    if key not in space._kept:
        space._kept[key] = build()
    return space._kept[key]


def _flat_point_dim(space: DiscreteProbabilitySpace, p: HilbertPoint) -> int:
    """Per-atom dimension of a flattened point, after the checks of :func:`unflatten`."""
    k = space.n_atoms
    if p.dim % k != 0 or p.dim == 0:
        raise DimensionMismatch(
            f"flattened length {p.dim} is not a positive multiple of {k} atoms"
        )
    d = p.dim // k
    expected = flat_weights(space, d)
    if p.weights is None:
        if not np.array_equal(expected, np.ones(p.dim)):
            raise WeightMismatch("flattened point must carry the repeated atom weights")
    elif p.weights is not expected and not np.array_equal(p.weights, expected):
        raise WeightMismatch("flattened weights do not match the space's atom weights")
    return d


def unflatten(space: DiscreteProbabilitySpace, p: HilbertPoint) -> BochnerFunction:
    """Inverse of :func:`flatten`, viewing p's coefficients; the per-atom dimension is inferred."""
    return _function(space, p.coeffs.reshape(space.n_atoms, _flat_point_dim(space, p)))


@dataclass(frozen=True)
class OrthonormalSystemReport:
    """Outcome of the orthonormal-system-but-not-basis construction.

    ``gram`` tabulates <1_S (x) b_n, 1_S (x) b_m> for n, m <= d; the
    counterexample f(s) = sum_n 2^-n G(s) b_n (G = +1 on the half-measure
    subset, -1 off it) has positive norm yet is orthogonal to the whole
    system, so the system spans a proper subspace.
    """

    subset_ids: tuple
    gram: np.ndarray
    orthonormality_deviation: float
    counterexample: BochnerFunction
    counterexample_norm_sq: float
    max_abs_inner: float


def find_half_measure_subset(space: DiscreteProbabilitySpace) -> tuple:
    """Smallest-first search for a subset of atoms with measure exactly 1/2."""
    k = space.n_atoms
    if k > _SUBSET_SEARCH_LIMIT:
        raise NoHalfMeasureSubset(
            f"subset search supports at most {_SUBSET_SEARCH_LIMIT} atoms, got {k}"
        )
    for size in range(1, k):
        for combo in itertools.combinations(range(k), size):
            if abs(float(space.weights[list(combo)].sum()) - 0.5) <= _WEIGHT_SUM_TOL:
                return tuple(space.atom_ids[i] for i in combo)
    raise NoHalfMeasureSubset("no subset of atoms has measure 1/2")


def orthonormal_system_report(space: DiscreteProbabilitySpace, d: int) -> OrthonormalSystemReport:
    """Verify {1_S (x) b_n} is orthonormal yet not a basis (d-term truncation)."""
    if d < 1:
        raise ValueError("d must be a positive integer")
    subset = find_half_measure_subset(space)
    basis = [
        constant_function(space, HilbertPoint(np.eye(d)[n]))
        for n in range(d)
    ]
    gram = np.array(
        [[bochner_inner(basis[n], basis[m]) for m in range(d)] for n in range(d)]
    )
    deviation = float(np.max(np.abs(gram - np.eye(d))))
    in_subset = set(subset)
    signs = np.array([1.0 if a in in_subset else -1.0 for a in space.atom_ids])
    series = np.array([2.0 ** -(n + 1) for n in range(d)])
    counterexample = BochnerFunction(
        space, tuple(HilbertPoint(s * series) for s in signs)
    )
    norm_sq = bochner_inner(counterexample, counterexample)
    max_inner = max(
        abs(bochner_inner(counterexample, basis[m])) for m in range(d)
    )
    return OrthonormalSystemReport(
        subset_ids=subset,
        gram=gram,
        orthonormality_deviation=deviation,
        counterexample=counterexample,
        counterexample_norm_sq=norm_sq,
        max_abs_inner=max_inner,
    )


def isometric_embedding(space: DiscreteProbabilitySpace, atom_subset, x: HilbertPoint) -> BochnerFunction:
    """x -> (1/sqrt(mu(A))) (1_A (x) x), an isometry into L2(S; H)."""
    mu = subset_measure(space, atom_subset)
    return simple_function(space, atom_subset, (1.0 / np.sqrt(mu)) * x)


def bochner_distance(f: BochnerFunction, g: BochnerFunction) -> float:
    check_same(f, g)
    diff = [_norm(None, row) ** 2 for row in f.array - g.array]
    return float(np.sqrt(max(np.dot(f.space.weights, diff), 0.0)))


__all__ = sorted(n for n, obj in globals().items() if n[0] != "_" and getattr(obj, "__module__", None) == __name__)
