"""The oracle's step trail as one array, the renderer's walk, and two fixes.

* ``fd_derivative`` wraps only the 23 quotients it returns as points: its
  step rows and their projections stay arrays, and the quotients are the
  read-only rows of one array.
* ``jsonio.dumps`` leaves no reference cycle behind, compact or pretty, so a
  rendered payload is freed when the caller drops it, not at the next
  garbage collection.
* ``bochner.check_same`` (and so ``bochner_ball_derivative``) gives a
  non-function argument the library's text, not an ``AttributeError``.
* A copied or unpickled span keeps its generator matrix read-only.
* A ball or span batch whose points carry weights equal to the set's, in
  other arrays, is gathered in one pass, not checked (or, on a span,
  projected) element by element first.
"""

import copy
import gc
import importlib
import pickle

import numpy as np
import pytest

import hilproj
from hilproj import (
    BochnerConstantSubspace,
    BochnerFunction,
    BochnerPointwiseCone,
    ClosedBall,
    DiscreteProbabilitySpace,
    HilbertPoint,
    PositiveCone,
    SubspaceSpan,
    bochner_ball_derivative,
    bochner_distance,
    bochner_inner,
    fd_derivative,
    flatten,
    jsonio,
    project,
    project_sequence,
    unflatten,
)
from hilproj.bochner import check_same
from hilproj.errors import DimensionMismatch
from hilproj.sets import _flat_direction

SPACE = DiscreteProbabilitySpace(("a", "b", "c"), np.array([0.2, 0.3, 0.5]))


def _sets():
    rng = np.random.default_rng(5)
    w = rng.uniform(0.5, 2.0, 6)
    q = np.linalg.qr(rng.standard_normal((6, 3)))[0].T
    return {
        "ball": ClosedBall(HilbertPoint(rng.uniform(-1.0, 1.0, 6), w), 1.3),
        "cone": PositiveCone(6),
        "span": SubspaceSpan(tuple(HilbertPoint(u) for u in q)),
        "bochner_cone": BochnerPointwiseCone(SPACE),
        "bochner_constants": BochnerConstantSubspace(SPACE),
    }


def _cases():
    for name, s in _sets().items():
        rng = np.random.default_rng(11)
        for i in range(3):
            x, v = s._sample_pair(rng, i > 0)
            yield pytest.param(s, x, v, id=f"{name}-{i}")
            if name.startswith("bochner"):
                yield pytest.param(s, unflatten(SPACE, x), unflatten(SPACE, v), id=f"{name}_function-{i}")


def _count_wrapped_rows(monkeypatch) -> list:
    """Patch every module's ``_trusted_rows`` (``_points_from_rows`` calls core's) to count the points it builds."""
    real, count = hilproj.core._trusted_rows, [0]

    def counting(rows, weights):
        out = real(rows, weights)
        count[0] += len(out)
        return out

    for name in ("core", "sets", "oracle", "bochner", "derivatives"):
        module = importlib.import_module(f"hilproj.{name}")
        if hasattr(module, "_trusted_rows"):
            monkeypatch.setattr(module, "_trusted_rows", counting)
    return count


@pytest.mark.parametrize("s,x,v", list(_cases()))
def test_fd_derivative_wraps_only_its_23_quotients(monkeypatch, s, x, v):
    count = _count_wrapped_rows(monkeypatch)
    _flat_direction(s, x, v, 1e-6)
    door = count[0]  # a Bochner set's door views x and v as two flat points
    count[0] = 0
    est = fd_derivative(s, x, v)
    assert len(est.step_sequence) == 23
    assert count[0] == 23 + door


@pytest.mark.parametrize("s,x,v", list(_cases()))
def test_the_23_quotients_are_read_only_rows_of_one_array(s, x, v):
    est = fd_derivative(s, x, v)
    quotients = [q for _, q in est.step_sequence]
    base = quotients[0].coeffs.base
    assert base is not None and base.shape == (23, quotients[0].dim)
    assert all(q.coeffs.base is base for q in quotients)
    assert not base.flags.writeable and not any(q.coeffs.flags.writeable for q in quotients)
    weights = project(s, x if isinstance(x, HilbertPoint) else flatten(x)).weights
    assert all(q.weights is weights for q in quotients)


def _payloads():
    rng = np.random.default_rng(2)
    s = _sets()["ball"]
    x, v = s._sample_pair(rng, True)
    return {
        "oracle": {"covered": True, "case": "Thm4.1(ii)(a)", "agreement": 1.5e-9,
                   "oracle": jsonio.encode_oracle_estimate(fd_derivative(s, x, v))},
        "batch": [jsonio.encode_point(p) for p in project_sequence(s, [x, v, x])],
        "function": jsonio.encode_function(_function()),
        "mixed": {"n": 3, "flag": False, "none": None, "tuple": (1.0, "a", [], {}),
                  "numpy": [np.float64(0.25), np.int64(7)], "empty": "", "nested": [[0.5, -0.0], [[]]]},
    }


@pytest.mark.parametrize("pretty", [False, True], ids=["compact", "pretty"])
@pytest.mark.parametrize("name", ["oracle", "batch", "function", "mixed"])
def test_dumps_leaves_no_reference_cycle(name, pretty):
    payload = _payloads()[name]
    gc.collect()
    gc.disable()
    try:
        text = jsonio.dumps(payload, pretty=pretty)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert jsonio.loads(text) == jsonio.loads(jsonio.dumps(payload, pretty=not pretty))


def _function():
    return BochnerFunction(SPACE, (HilbertPoint([1.0, -2.0]), HilbertPoint([0.0, 3.0]), HilbertPoint([0.5, 0.5])))


def test_bochner_ball_derivative_gives_a_flat_direction_the_library_text():
    f = _function()
    with pytest.raises(DimensionMismatch, match="^functions over 3 atoms got HilbertPoint$"):
        bochner_ball_derivative(f, flatten(f))
    with pytest.raises(DimensionMismatch, match="^functions over 3 atoms got HilbertPoint$"):
        bochner_ball_derivative(flatten(f), f)


@pytest.mark.parametrize("call", [check_same, bochner_inner, bochner_distance])
def test_a_non_function_gets_the_library_text_in_either_place(call):
    f = _function()
    for args in ((f, "x"), ("x", f)):
        with pytest.raises(DimensionMismatch, match="^functions over 3 atoms got str$"):
            call(*args)
    with pytest.raises(DimensionMismatch, match="^functions over k atoms got NoneType$"):
        call(None, "x")


_CLONES = {"copy": copy.copy, "deepcopy": copy.deepcopy,
           "pickle": lambda o: pickle.loads(pickle.dumps(o))}
_SPANS = {
    "weighted": lambda: SubspaceSpan((HilbertPoint([1.0, 0.0, 0.0], [1.0, 4.0, 1.0]),
                                      HilbertPoint([0.0, 0.5, 0.0], [1.0, 4.0, 1.0]))),
    "unweighted": lambda: SubspaceSpan((HilbertPoint([0.6, 0.8, 0.0]),)),
    "singleton": lambda: SubspaceSpan((), ambient_dim=3),
}


@pytest.mark.parametrize("kind", list(_SPANS))
@pytest.mark.parametrize("name", list(_CLONES))
def test_a_copied_span_keeps_its_basis_read_only(name, kind):
    span = _SPANS[kind]()
    twin = _CLONES[name](span)
    assert type(twin) is SubspaceSpan and twin is not span
    assert not twin._basis.flags.writeable
    with pytest.raises(ValueError):
        twin._basis[...] = 0.0
    assert twin.dim == span.dim and twin.n_generators == span.n_generators
    assert twin._basis.tobytes() == span._basis.tobytes()
    w = None if not span.generators else span.generators[0].weights
    x = HilbertPoint([0.3, -1.7, 2.5], w)
    assert project(twin, x).coeffs.tobytes() == project(span, x).coeffs.tobytes()


@pytest.mark.parametrize("kind", ["ball", "span"])
def test_a_batch_carrying_equal_weights_in_other_arrays_is_gathered_in_one_pass(monkeypatch, kind):
    w = np.array([0.5, 1.0, 2.0])
    if kind == "ball":
        s, check = ClosedBall(HilbertPoint([0.1, -0.2, 0.3], w), 1.0), "_check"
    else:
        s, check = SubspaceSpan(tuple(HilbertPoint(np.eye(3)[i] / np.sqrt(w[i]), w) for i in range(2))), "_project"
    rng = np.random.default_rng(4)
    xs = [HilbertPoint(rng.uniform(-3.0, 3.0, 3) * (0.1 if i % 2 else 1.0), w.copy()) for i in range(6)]
    want = [project(s, x) for x in xs]
    calls = []
    real = getattr(type(s), check)
    monkeypatch.setattr(type(s), check, lambda self, x, *a: calls.append(x) or real(self, x, *a))
    got = project_sequence(s, xs)
    assert calls == []  # no element went through project's door one by one
    for u, p, x in zip(got, want, xs):
        assert (u is x) == (p is x) and u.weights is p.weights
        assert u.coeffs.tobytes() == p.coeffs.tobytes()
