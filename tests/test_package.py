"""The package namespace re-exports each model-side module's ``__all__``."""

import pytest

import qspectra
from qspectra import classical, constants, estimate, models, params, squid


@pytest.mark.parametrize("module", [constants, params, models, squid, classical, estimate],
                         ids=lambda module: module.__name__.rsplit(".", 1)[-1])
def test_module_public_names_are_package_names(module):
    missing = [name for name in module.__all__
               if getattr(qspectra, name, None) is not getattr(module, name)]
    assert missing == []
