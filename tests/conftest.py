import pytest

from gapsecretary import batch


@pytest.fixture
def draws(monkeypatch) -> list:
    """The (family, n, rows, master_seed) of every generated chunk drawn
    while the test runs, in order: each call of ``batch._build_batch``, the
    one function every generated chunk is drawn through."""
    calls = []
    build = batch._build_batch

    def counting(family, n, rows, master_seed, *policies):
        calls.append((family, n, rows, master_seed))
        return build(family, n, rows, master_seed, *policies)

    monkeypatch.setattr(batch, "_build_batch", counting)
    return calls
