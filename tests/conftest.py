import contextlib
import time

import pytest

_ACCEPTANCE_LINES: dict[int, str] = {}


@pytest.fixture
def acceptance():
    """Record a [acceptance N] PASS/FAIL line for the terminal summary."""

    @contextlib.contextmanager
    def criterion(num: int, label: str, budget: float | None = None):
        start = time.monotonic()
        try:
            yield
        except BaseException:
            _ACCEPTANCE_LINES[num] = f"[acceptance {num}] FAIL {label}"
            raise
        elapsed = time.monotonic() - start
        if budget is not None and elapsed >= budget:
            _ACCEPTANCE_LINES[num] = (
                f"[acceptance {num}] FAIL {label} (took {elapsed:.1f}s, "
                f"budget {budget:g}s)"
            )
            raise AssertionError(
                f"criterion {num} exceeded its {budget:g}s budget: {elapsed:.1f}s"
            )
        _ACCEPTANCE_LINES[num] = f"[acceptance {num}] PASS {label}"

    return criterion


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_ACCEPTANCE_LINES):
        terminalreporter.write_line(_ACCEPTANCE_LINES[num])
