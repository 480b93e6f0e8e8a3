import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("default", deadline=None, max_examples=50)
settings.load_profile("default")


@pytest.fixture
def linalg_calls(monkeypatch):
    """linalg_calls(*names) -> {name: calls}: counts each np.linalg function
    in names from then on, wrapping whatever stands there now."""
    def count(*names):
        calls = dict.fromkeys(names, 0)

        def counting(name):
            real = getattr(np.linalg, name)

            def call(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return call

        for name in names:
            monkeypatch.setattr(np.linalg, name, counting(name))
        return calls
    return count
