import os

from polyg2p.synth import _BLAS_THREAD_VARIABLES, _one_blas_thread


def test_one_blas_thread_sets_and_restores_the_environment(monkeypatch):
    first, *others = _BLAS_THREAD_VARIABLES
    monkeypatch.setenv(first, "3")
    for name in others:
        monkeypatch.delenv(name, raising=False)
    with _one_blas_thread():
        assert all(os.environ[name] == "1" for name in _BLAS_THREAD_VARIABLES)
    assert os.environ[first] == "3"
    assert not any(name in os.environ for name in others)
