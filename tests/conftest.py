import pytest

from cordial import bounds, max_edges


@pytest.fixture
def orientable_above_ceiling(monkeypatch):
    """Fake the bound census's scan so every graph above max_edges(n)
    looks orientable (vertices 1..n/2 labeled 1, a friendly mask); every
    other graph keeps the real answer."""
    scan = bounds._scan_first_mask

    def fake(n, pairs, directed):
        if len(pairs) > max_edges(n):
            return sum(1 << v for v in range(1, n // 2 + 1))
        return scan(n, pairs, directed)

    monkeypatch.setattr(bounds, "_scan_first_mask", fake)
