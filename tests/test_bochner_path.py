"""The Bochner sets' projection path: same bits, one scan where a result can fail, flat sets kept.

* Single and batch projections on both Bochner sets, in both argument forms
  (a ``BochnerFunction`` and its flattened point), equal bit for bit the
  reference below: the atom values stacked with ``np.stack``, then the clip,
  or the mean with the weights broadcast along d and its ``np.repeat``. Every
  result is read-only, and a flat result carries the space's flat weights.
* The constants scan their mean, not its repeat: a mean that overflows
  still raises ``ValueError("coeffs must be finite")``.
* The pointwise cone's flat ``PositiveCone`` and the unit ball of
  ``bochner_ball_derivative`` are built once per space and per-atom
  dimension, however many queries read them.
"""

import warnings

import numpy as np
import pytest

import hilproj.sets
from hilproj import (
    BochnerConstantSubspace,
    BochnerFunction,
    BochnerPointwiseCone,
    ClosedBall,
    DiscreteProbabilitySpace,
    HilbertPoint,
    PositiveCone,
    bochner_ball_derivative,
    derivative,
    flat_weights,
    flatten,
    project,
    project_sequence,
)

SETS = [BochnerPointwiseCone, BochnerConstantSubspace]


def _space(k=7, seed=0):
    w = np.random.default_rng(seed).uniform(0.5, 1.5, k)
    return DiscreteProbabilitySpace(tuple(f"s{i}" for i in range(k)), w / w.sum())


def _function(rng, sp, d):
    a = rng.uniform(-2.0, 2.0, (sp.n_atoms, d))
    a[a < -1.5] = -0.0  # a -0.0 the clip must turn into +0.0
    return BochnerFunction(sp, [HilbertPoint(row) for row in a])


def _reference(cls, sp, atoms):
    """The projected atom values computed as np.stack, then the clip or the repeat of the mean."""
    values = np.stack(atoms)
    if cls is BochnerPointwiseCone:
        return hilproj.sets.clip_nonnegative(values)
    mean = np.add.accumulate(sp.weights[:, None] * values, axis=-2)[..., -1, :]
    return np.repeat(mean[..., None, :], sp.n_atoms, axis=-2)


def _atoms(u):
    return u.array if isinstance(u, BochnerFunction) else u.coeffs


def _check(sp, u, x, expected):
    """u is read-only, in x's form, and bit for bit the (k, d) expected; a flat u carries the flat weights."""
    d = expected.shape[-1]
    assert type(u) is type(x)
    assert not _atoms(u).flags.writeable
    assert _atoms(u).shape == (expected.shape if isinstance(u, BochnerFunction) else (expected.size,))
    assert _atoms(u).tobytes() == expected.tobytes()
    if isinstance(u, HilbertPoint):
        assert u.weights is flat_weights(sp, d)
    else:
        assert u.space is sp


@pytest.mark.parametrize("flat", [False, True], ids=["function", "flat"])
@pytest.mark.parametrize("cls", SETS)
def test_a_single_projection_keeps_the_bits(cls, flat):
    rng = np.random.default_rng(1)
    sp = _space()
    for d in (1, 3):
        f = _function(rng, sp, d)
        x = flatten(f) if flat else f
        _check(sp, project(cls(sp), x), x, _reference(cls, sp, [f.array])[0])


@pytest.mark.parametrize("dims", [(3, 3, 3, 3), (2, 3, 2, 1)], ids=["one_dim", "mixed_dims"])
@pytest.mark.parametrize("forms", ["functions", "flat", "alternating"])
@pytest.mark.parametrize("cls", SETS)
def test_a_batch_keeps_the_bits(cls, forms, dims):
    rng = np.random.default_rng(2)
    sp = _space()
    fs = [_function(rng, sp, d) for d in dims]
    flat = [forms == "flat" or (forms == "alternating" and i % 2 == 1) for i in range(len(fs))]
    xs = [flatten(f) if fl else f for f, fl in zip(fs, flat)]
    out = project_sequence(cls(sp), xs)
    assert len(out) == len(xs)
    if len(set(dims)) == 1:
        expected = _reference(cls, sp, [f.array for f in fs])
    else:
        expected = [_reference(cls, sp, [f.array])[0] for f in fs]
    for u, x, e in zip(out, xs, expected):
        _check(sp, u, x, e)


def _overflowing_constants():
    sp = DiscreteProbabilitySpace(("a", "b"), np.array([0.6, 0.4 + 1e-13]))
    big = np.finfo(float).max
    f = BochnerFunction(sp, [HilbertPoint([big]), HilbertPoint([big])])
    return BochnerConstantSubspace(sp), f


def test_an_overflowing_mean_raises_the_finiteness_error():
    s, f = _overflowing_constants()
    calls = (lambda: project(s, f), lambda: project(s, flatten(f)),
             lambda: project_sequence(s, [f, f]), lambda: project_sequence(s, [flatten(f)]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for call in calls:
            with pytest.raises(ValueError, match=r"^coeffs must be finite$"):
                call()


def test_under_error_filters_the_overflow_warning_comes_first():
    s, f = _overflowing_constants()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: project(s, f), lambda: project_sequence(s, [f])):
            with pytest.raises(RuntimeWarning, match="overflow encountered in accumulate"):
                call()


@pytest.fixture
def builds(monkeypatch):
    """How many PositiveCone and ClosedBall objects are built, by class name."""
    counts = {}
    for cls in (PositiveCone, ClosedBall):
        counts[cls.__name__] = 0

        def counted(self, real=cls.__post_init__, name=cls.__name__):
            counts[name] += 1
            real(self)
        monkeypatch.setattr(cls, "__post_init__", counted)
    return counts


def test_the_pointwise_cone_builds_its_flat_cone_once(builds):
    rng = np.random.default_rng(3)
    sp = _space(4)
    cone = BochnerPointwiseCone(sp)
    f = BochnerFunction(sp, [HilbertPoint(rng.uniform(0.5, 2.0, 3)) for _ in sp.atom_ids])
    h = _function(rng, sp, 3)
    first, second = derivative(cone, f, h), derivative(cone, flatten(f), flatten(h))
    assert builds == {"PositiveCone": 1, "ClosedBall": 0}
    assert first.case_tag == second.case_tag == "Thm5.1(iii)"
    assert flatten(first.value).coeffs.tobytes() == second.value.coeffs.tobytes()


def test_the_bochner_ball_derivative_builds_its_unit_ball_once(builds):
    rng = np.random.default_rng(4)
    sp = _space(4)
    f, h = _function(rng, sp, 3), _function(rng, sp, 3)
    first, second = bochner_ball_derivative(f, h), bochner_ball_derivative(f, h)
    assert builds == {"PositiveCone": 0, "ClosedBall": 1}
    assert first.case_tag == second.case_tag
    assert first.value.array.tobytes() == second.value.array.tobytes()
