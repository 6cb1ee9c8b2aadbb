"""The verify suites compute each per-weight and per-field quantity once."""

from collections import Counter

from sphere_poincare import eigensolver, sharp, suites, vsh


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


def test_energy_routes_analyzes_each_field_once(monkeypatch):
    calls = []
    analyze = vsh.VectorBasis.analyze

    def counting(self, u):
        calls.append(self.band_limit)
        return analyze(self, u)

    monkeypatch.setattr(vsh.VectorBasis, "analyze", counting)
    checks = suites.suite_energy_routes(0)
    assert all(check.passed for check in checks)
    # 100 random band-4 fields at four weights each, and the normal field.
    assert len(calls) == 100 + 1


def _recording_draws(monkeypatch):
    draws = []
    random_tables = vsh._random_tables

    def recording(band_limit, rng, count, families=(1, 2, 3), norm_sq=None):
        draws.append((band_limit, count, tuple(families), norm_sq))
        return random_tables(band_limit, rng, count, families, norm_sq)

    monkeypatch.setattr(vsh, "_random_tables", recording)
    return draws


def test_fuzz_suites_keep_their_draws_in_blocks_of_100(monkeypatch):
    draws = _recording_draws(monkeypatch)
    suites.suite_inequality(0)
    four_pi = suites.FOUR_PI
    assert draws == (
        [(6, 100, (1, 2, 3), four_pi)] * 12 + [(6, 100, (2, 3), four_pi)] * 5
    )
    draws.clear()
    suites.suite_energy_routes(0)
    assert draws == [(4, 100, (1, 2, 3), None)] * 10 + [(4, 1, (1, 2, 3), None)] * 100
