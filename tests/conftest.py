import tracemalloc

import pytest

_criterion_lines = []


@pytest.fixture
def criterion_report():
    """Record one PASS/FAIL line per acceptance criterion.

    Lines are echoed immediately (visible with -s) and replayed in the
    terminal summary so they appear in default captured runs too.
    """
    def _report(num, ok, detail):
        line = f"criterion {num} [{'PASS' if ok else 'FAIL'}] {detail}"
        _criterion_lines.append(line)
        print("\n" + line)
    return _report


@pytest.fixture
def count_calls(monkeypatch):
    """Replace module-level functions by call-counting wrappers.

    `count_calls(module, names)` returns a name -> calls dict that fills as
    the module's code calls those names.  bench/run.py --trace 1 wraps
    functions the same way, where the calling module binds them, and
    fails when one of its expected spans is never called;
    tests/test_bench_contract.py wraps those spans, read from
    bench/workloads.py, with this fixture.
    """
    def wrap(calls, name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    def _count(module, names):
        calls = dict.fromkeys(names, 0)
        for name in names:
            monkeypatch.setattr(module, name, wrap(calls, name, getattr(module, name)))
        return calls
    return _count


@pytest.fixture
def traced_peak():
    """`traced_peak(fn)` calls fn and returns the peak bytes traced above those held before.

    numpy reports its array buffers to tracemalloc, so arrays count
    along with Python objects.
    """
    def _peak(fn):
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            fn()
            return tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
    return _peak


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _criterion_lines:
        terminalreporter.section("acceptance criteria")
        for line in _criterion_lines:
            terminalreporter.write_line(line)
