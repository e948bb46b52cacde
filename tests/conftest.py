import numpy as np
import pytest

from nterm.approx import CoefficientSequence
from nterm.weights import RearrangedWeight


def coeffs(d: int, mapping: dict) -> CoefficientSequence:
    """The sequence with coefficient ``mapping[k]`` at each index k."""
    return CoefficientSequence(d, list(mapping), list(mapping.values()))


def as_dict(f: CoefficientSequence) -> dict:
    """``{index tuple: coefficient}`` of the stored (nonzero) coefficients."""
    return dict(zip(map(tuple, f.keys.tolist()), f.values.tolist()))


class ExplicitSequence:
    """Adapter turning a vectorized callable j -> Psi(j) into a sequence.

    ``fn`` must accept an int64 ndarray and return positive values; an
    optional ``log_fn`` supplies log Psi directly for values far below
    the float range.  ``iter_blocks()`` yields runs of length one, 4096
    per block.
    """

    def __init__(self, fn, log_fn=None):
        self.fn = fn
        self.log_fn = log_fn

    def iter_blocks(self):
        j0 = 1
        while True:
            j_arr = np.arange(j0, j0 + 4096, dtype=np.int64)
            if self.log_fn is not None:
                lv = self.log_fn(j_arr)
            else:
                lv = np.log(np.asarray(self.fn(j_arr), dtype=np.float64))
            yield j_arr, np.asarray(lv, dtype=np.float64)
            j0 += 4096


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
