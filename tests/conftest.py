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
    """gram_factors(refuse=()) -> [info, ...]: the info of every factor the
    unrealizable route takes from then on, in call order: the blocked
    factor of a Gram (`risk.factor_gram`; once per replicate in a sweep,
    once per standalone `make_target`) and the packed factor of a cell's
    ridge Gram G.  A call whose index is in refuse returns info 1 without
    factoring: a Gram whose factor stops at order 1 serves no cell's
    projection, which takes the QR (`risk._qr_projection`), and a failed G
    sends the fit to the stack QR (`risk._ridge_fit`)."""
    from noisyrf import risk

    def record(refuse=()):
        infos = []

        def recording(real):
            def factor(*args):
                infos.append(1 if len(infos) in refuse else real(*args))
                return infos[-1]
            return factor

        for name in ("blocked_cholesky_in_place", "packed_cholesky_in_place"):
            monkeypatch.setattr(risk, name, recording(getattr(risk, name)))
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
