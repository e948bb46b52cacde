import pytest

from nterm.weights import RearrangedWeight


@pytest.fixture
def stream_count(monkeypatch):
    """Counts RearrangedWeight.iter_blocks() calls: one per stream."""
    calls = []
    original = RearrangedWeight.iter_blocks

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(RearrangedWeight, "iter_blocks", counted)
    return calls
