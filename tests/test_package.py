"""The package namespace re-exports each model-side module's ``__all__``,
and every name in a module's ``__all__`` is bound."""

import pytest

import qspectra
from qspectra import classical, constants, estimate, io, models, params, squid, svg


@pytest.mark.parametrize("module", [constants, params, models, squid, classical, estimate],
                         ids=lambda module: module.__name__.rsplit(".", 1)[-1])
def test_module_public_names_are_package_names(module):
    missing = [name for name in module.__all__
               if getattr(qspectra, name, None) is not getattr(module, name)]
    assert missing == []


@pytest.mark.parametrize("module", [io, svg],
                         ids=lambda module: module.__name__.rsplit(".", 1)[-1])
def test_output_module_public_names_are_bound(module):
    # nothing star-imports these modules, so a stale name would go unseen
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
