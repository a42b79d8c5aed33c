"""``--acceptance-report PATH``: the acceptance gate's verdicts as one JSON file.

With the option, each acceptance criterion adds one record: its number,
pass or fail, the detail line, each gated statistic with its bound and
margin (how far inside the bound it is; negative when it fails), and the
wall and CPU seconds of the test's set-up, which runs the session
fixtures it is the first to use, and of its call. The file is written
when the session ends, records in test order. Without the option nothing
is recorded or written, and no assertion changes.
"""

import json
import time
from pathlib import Path

import pytest

_RECORDS = pytest.StashKey[dict]()


def pytest_addoption(parser):
    parser.addoption(
        "--acceptance-report",
        metavar="PATH",
        default=None,
        help="write one JSON record per acceptance criterion to PATH",
    )


def pytest_configure(config):
    if config.getoption("--acceptance-report"):
        config.stash[_RECORDS] = {}


def _timed(item, phase: str):
    records = item.config.stash.get(_RECORDS, None)
    if records is None or item.get_closest_marker("acceptance") is None:
        yield
        return
    wall, cpu = time.perf_counter(), time.process_time()
    yield
    record = records.setdefault(item.nodeid, {})
    record[f"{phase}_wall_s"] = round(time.perf_counter() - wall, 3)
    record[f"{phase}_cpu_s"] = round(time.process_time() - cpu, 3)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_setup(item):
    yield from _timed(item, "setup")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    yield from _timed(item, "call")


@pytest.fixture
def acceptance_record(request):
    """This test's report record, a dict for ``verdict`` to fill; None without the option."""
    records = request.config.stash.get(_RECORDS, None)
    return None if records is None else records.setdefault(request.node.nodeid, {})


def pytest_sessionfinish(session):
    records = session.config.stash.get(_RECORDS, None)
    if records is None:
        return
    rows = [{"test": nodeid, **record} for nodeid, record in records.items()]
    path = Path(session.config.getoption("--acceptance-report"))
    path.write_text(json.dumps(rows, indent=1) + "\n")
