import numpy as np
import pytest

from infostorage import Alphabet, EmbeddingConfig, SymbolSeries


def naive_count(x, u, cfg):
    """Reference counting by a direct loop; mirrors the contract exactly."""
    k, lag = cfg.k, cfg.input_lag
    start = k + (max(0, lag - 1) if u is not None else 0)
    counts = {}
    for m in range(start, len(x)):
        h = tuple(int(v) for v in x.data[m - k : m])
        xn = int(x.data[m])
        un = int(u.data[m - lag]) if u is not None else 0
        key = (h, xn, un)
        counts[key] = counts.get(key, 0) + 1
    return counts


def step_cells(table):
    """Per-step (history code, next, input) arrays, decoded from the table."""
    hx, u = np.divmod(table.cells[table.transitions], table.n_inputs)
    h, x = np.divmod(hx, table.alphabet_x.size)
    return h, x, u


def table_to_dict(table):
    """Flatten a JointCountTable into the naive_count key convention."""
    from infostorage.symseq import decode_history

    nx = table.alphabet_x.size
    out = {}
    for code, n in zip(table.cells.tolist(), table.counts.tolist()):
        hx, un = divmod(code, table.n_inputs)
        h, xn = divmod(hx, nx)
        out[(decode_history(h, table.k, nx), xn, un)] = n
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_series(rng, n, alphabet_size):
    return SymbolSeries(Alphabet(alphabet_size), rng.integers(0, alphabet_size, n))
