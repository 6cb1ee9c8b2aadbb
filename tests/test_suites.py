"""The verify suites compute each per-weight quantity once."""

from collections import Counter

from sphere_poincare import eigensolver, sharp, suites


def _counting(monkeypatch, module, name):
    calls = Counter()
    original = getattr(module, name)

    def wrapper(kappa, *args, **kwargs):
        calls[kappa] += 1
        return original(kappa, *args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_lemma_sweeps_once_per_weight(monkeypatch):
    calls = _counting(monkeypatch, eigensolver, "gamma_numeric")
    checks = suites.suite_lemma(0)
    assert all(check.passed for check in checks)
    assert sum(calls.values()) == 201 + 200


def test_inequality_evaluates_each_constant_once(monkeypatch):
    calls = _counting(monkeypatch, sharp, "gamma")
    checks = suites.suite_inequality(0)
    assert all(check.passed for check in checks)
    assert len(calls) == 20 + 4
    assert set(calls.values()) == {1}
