import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from pikaparse.engine import FillPlan  # noqa: E402

from helpers import assert_every_child_has_a_source  # noqa: E402


@pytest.fixture(autouse=True)
def every_fill_plan_is_complete():
    """Check every FillPlan a test builds: each match's children must have
    a source (see helpers.assert_every_child_has_a_source), since the
    decoder has no fallback for a clause without one."""
    build = FillPlan.__init__

    def checked(self, grammar):
        build(self, grammar)
        assert_every_child_has_a_source(grammar, self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(FillPlan, "__init__", checked)
        yield

# One line per acceptance criterion, printed after the run so the result
# of each is visible even when everything passes.
acceptance_lines = []


def record_criterion(number, name, ok, detail):
    acceptance_lines.append(
        "criterion %d (%s): %s  [%s]"
        % (number, name, "PASS" if ok else "FAIL", detail)
    )


def pytest_terminal_summary(terminalreporter):
    if not acceptance_lines:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for line in sorted(acceptance_lines):
        terminalreporter.write_line(line)
