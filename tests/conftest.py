import pytest

from nullgrid import oracle

# the record contract's asserts report their operands, as a test's do
pytest.register_assert_rewrite("record_contract")


@pytest.fixture
def numpy_counted_as_loaded(monkeypatch):
    """Spend the reference's budget for processes without numpy, so a test
    sees the path a process that has loaded numpy takes, whichever tests
    ran before it."""
    monkeypatch.setattr(oracle, "_cold_work_left", 0)


@pytest.fixture
def kernel_on_small_grids(monkeypatch, numpy_counted_as_loaded):
    """Send every grid the kernel can take to the kernel, however small, so
    that tests comparing it with ``_count_rec`` compare two evaluators."""
    monkeypatch.setattr(oracle, "_SMALL_GRID", 0)
