import numpy as np
import pytest

from nterm.weights import RearrangedWeight


def stream_runs(seq, upto: int):
    """(run ordinal, log value) at positions 1..upto, read from iter_blocks().

    For a rearranged weight the run ordinal is the shell index m.
    """
    bounds, logs = [], []
    for V, lv in seq.iter_blocks():
        bounds.append(np.asarray(V, dtype=np.int64))
        logs.append(np.asarray(lv, dtype=np.float64))
        if bounds[-1][-1] >= upto:
            break
    runs = np.searchsorted(np.concatenate(bounds), np.arange(1, upto + 1), side="left")
    return runs, np.concatenate(logs)[runs]


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
