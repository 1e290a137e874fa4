"""Each library module declares its public surface once, computed from its definitions.

A module's ``__all__`` is every public-named class and function it defines,
plus the constant it exports (``core.DEFAULT_TOL``,
``derivatives.NOT_COVERED_TAG``), minus the one helper the package keeps
out of its surface, ``sets.clip_nonnegative``. No module defines a
public-named callable that it does not export, so a helper is either
exported or underscored.
"""

import pytest

import hilproj

CONSTANTS = {"core": {"DEFAULT_TOL"}, "derivatives": {"NOT_COVERED_TAG"}}
KEPT_OUT = {"sets": {"clip_nonnegative"}}
MODULES = ("bochner", "core", "derivatives", "errors", "fourier", "oracle", "sets")


def _defined(mod):
    """The public-named classes and functions the module defines itself."""
    return {n for n, obj in vars(mod).items()
            if n[0] != "_" and callable(obj) and getattr(obj, "__module__", None) == mod.__name__}


@pytest.mark.parametrize("module", MODULES)
def test_the_list_is_what_the_module_defines(module):
    mod = getattr(hilproj, module)
    want = (_defined(mod) | CONSTANTS.get(module, set())) - KEPT_OUT.get(module, set())
    assert sorted(mod.__all__) == sorted(want)
    assert len(set(mod.__all__)) == len(mod.__all__)


@pytest.mark.parametrize("module", MODULES)
def test_no_public_named_callable_goes_unexported(module):
    mod = getattr(hilproj, module)
    assert _defined(mod) - set(mod.__all__) == KEPT_OUT.get(module, set())


@pytest.mark.parametrize("module", sorted(CONSTANTS))
def test_the_exported_constant_comes_first(module):
    mod = getattr(hilproj, module)
    (constant,) = CONSTANTS[module]
    assert mod.__all__[0] == constant
    assert mod.__all__[1:] == sorted(mod.__all__[1:])


def test_the_weights_comparison_is_internal():
    assert not hasattr(hilproj.core, "same_weights")
    assert callable(hilproj.core._same_weights)


def test_clip_nonnegative_stays_reachable_and_out_of_the_package():
    assert callable(hilproj.sets.clip_nonnegative)
    assert "clip_nonnegative" not in hilproj.__all__
    assert not hasattr(hilproj, "clip_nonnegative")
    namespace = {}
    exec("from hilproj.sets import *", namespace)
    assert "clip_nonnegative" not in namespace
