import sys

import pytest

from dprelax import mechanism


@pytest.fixture(autouse=True)
def _cold_step_memo():
    """Every test starts and ends with an empty step-kernel memo, so call
    counts do not depend on which tests ran before."""
    mechanism._relax_kernel.cache_clear()
    yield
    mechanism._relax_kernel.cache_clear()


@pytest.fixture
def count_calls(monkeypatch):
    """Returns ``count(names)``: it counts calls of each named ``mechanism``
    function made through any ``dprelax`` module, in a dict the test resets as
    it needs."""

    def count(names):
        calls = dict.fromkeys(names, 0)
        for name in names:
            original = getattr(mechanism, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            for module_name, module in list(sys.modules.items()):
                if module_name.startswith("dprelax") and getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        return calls

    return count
