import sys

import pytest

from corpus import fixture_corpus, quasi_five_corpus


@pytest.fixture(scope="session")
def small_corpus():
    return fixture_corpus()


@pytest.fixture(scope="session")
def quasi5_corpus():
    return quasi_five_corpus()


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(*names) returns a dict that counts the calls of the named
    quasigraph functions, through every quasigraph module that holds them."""
    def count(*names):
        calls = dict.fromkeys(names, 0)
        for name in names:
            holders = [m for key, m in sys.modules.items()
                       if key.split(".")[0] == "quasigraph" and hasattr(m, name)]
            original = getattr(holders[0], name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            for module in holders:
                if getattr(module, name) is original:
                    monkeypatch.setattr(module, name, counted)
        return calls
    return count


@pytest.fixture
def count_certified(monkeypatch):
    """count_certified() returns a dict whose "certified" counts, from then
    on, the pairs of the kappa pass and of the separator listings
    (`connectivity._min_separators`) that short disjoint paths certify at
    their cap (`connectivity._has_short_paths`), so that they run no flow."""
    import quasigraph.connectivity as connectivity

    def install():
        counts = {"certified": 0}
        has_short_paths = connectivity._has_short_paths

        def counted(masks, s, t, cap, alive=-1):
            found = has_short_paths(masks, s, t, cap, alive)
            counts["certified"] += found
            return found

        monkeypatch.setattr(connectivity, "_has_short_paths", counted)
        return counts
    return install
