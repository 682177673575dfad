"""`blas.one_thread`: prediction runs OpenBLAS on one thread and gives the
thread count back as it found it."""

import numpy as np
import pytest

from urgentbayes import blas
from urgentbayes.autodiff import RngStream
from urgentbayes.encoder import BaseClassifier, HyperParams
from urgentbayes.mcd import McdConfig
from urgentbayes.training import build_model
from urgentbayes.vi import ViConfig

HP = HyperParams(max_len=6, embed_dim=4, hidden_dim=4, z_dim=2)
CFGS = dict(mcd_cfg=McdConfig(num_samples=3), vi_cfg=ViConfig(z_dim=2, m_test=3))


@pytest.fixture
def two_threads():
    """OpenBLAS's (get, set) controls, with the count at 2 for the test and
    set back afterwards."""
    with blas.one_thread():
        pass  # resolves the controls
    if not blas._controls:
        pytest.skip("NumPy's BLAS is not a loaded OpenBLAS")
    get, put = blas._controls
    before = get()
    put(2)
    yield get
    put(before)


def test_sets_one_thread_and_restores(two_threads):
    with blas.one_thread():
        assert two_threads() == 1
        with blas.one_thread():
            assert two_threads() == 1
        assert two_threads() == 1
    assert two_threads() == 2


def test_restores_after_an_error(two_threads):
    with pytest.raises(ZeroDivisionError):
        with blas.one_thread():
            1 / 0
    assert two_threads() == 2


@pytest.mark.parametrize("kind", ["base", "mcd", "vi"])
def test_predict_batch_runs_on_one_thread(two_threads, kind, monkeypatch):
    model = build_model(HP, np.random.default_rng(0).standard_normal((9, 4)), kind, 1, **CFGS)
    seen = []
    infer_states = BaseClassifier.infer_states

    def spy(self, *args, **kwargs):
        seen.append(two_threads())
        return infer_states(self, *args, **kwargs)

    monkeypatch.setattr(BaseClassifier, "infer_states", spy)
    ids = np.array([[2, 3, 4, 0, 0, 0], [5, 6, 7, 8, 2, 0]])
    model.predict_batch(ids, np.array([3, 5]), RngStream(4))
    assert seen and set(seen) == {1}
    assert two_threads() == 2


def test_without_openblas_does_nothing(monkeypatch):
    monkeypatch.setattr(blas, "_controls", None)
    with blas.one_thread():
        pass
    model = build_model(HP, np.random.default_rng(0).standard_normal((9, 4)), "mcd", 1, **CFGS)
    dists = model.predict_batch(np.array([[2, 3, 0, 0, 0, 0]]), np.array([2]), RngStream(4))
    assert len(dists) == 1
