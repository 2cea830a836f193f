import pytest

from detdec.detpomdp import _Search


@pytest.fixture
def sound_bounds(monkeypatch):
    """Checks every search the test runs: its result and each expanded node end with ub >= lb.

    Returns the list of checked ``SolveResult``s.
    """
    run = _Search.run
    results = []

    def checked_run(search):
        result = run(search)
        assert result.upper_bound >= result.lower_bound, (result.lower_bound, result.upper_bound)
        for node in search.nodes.values():
            if node.acts is not None:
                assert node.ub >= node.lb, (node.lb, node.ub)
        results.append(result)
        return result

    monkeypatch.setattr(_Search, "run", checked_run)
    return results
