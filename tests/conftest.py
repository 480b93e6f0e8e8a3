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


@pytest.fixture
def gram_factors(monkeypatch):
    """gram_factors(refuse=()) -> [info, ...]: the info of every in-place
    Gram factor `risk.make_target` takes from then on, in call order; a
    call whose index is in refuse returns info 1, a failed factor, without
    factoring."""
    from noisyrf import risk

    def record(refuse=()):
        infos = []
        real = risk.cholesky_in_place

        def factor(a):
            infos.append(1 if len(infos) in refuse else real(a))
            return infos[-1]

        monkeypatch.setattr(risk, "cholesky_in_place", factor)
        return infos
    return record


@pytest.fixture(autouse=True)
def fresh_training_rows():
    """Every test starts and ends with an empty per-replicate memo, as a
    fresh process would: a test that counts or patches the draws behind a
    replicate's rows must not find them cached by an earlier test."""
    from noisyrf import sweep
    sweep._training_rows.cache_clear()
    yield
    sweep._training_rows.cache_clear()
