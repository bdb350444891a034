import pytest

from nullgrid import oracle

# the record contract's asserts report their operands, as a test's do
pytest.register_assert_rewrite("record_contract")


@pytest.fixture
def numpy_counted_as_loaded(monkeypatch):
    """Spend the reference's budget for processes without numpy, so a test
    sees the path a process that has loaded numpy takes, whichever tests
    ran before it: every grid the kernel can take goes to the kernel."""
    monkeypatch.setattr(oracle, "_cold_work_left", 0)
