import time

import pytest

from semkit.calendar_world import load_world
from semkit.corpus import load_dataset, load_split
from semkit.geo import load_geobase
from semkit.resources import dataset_path, environment_path, split_path
from semkit.social_db import load_social_db

_SESSION_START = time.monotonic()
ACCEPTANCE_LINES: list[str] = []


def session_elapsed() -> float:
    return time.monotonic() - _SESSION_START


def record_acceptance(number: int, description: str, passed: bool = True) -> None:
    status = "PASS" if passed else "FAIL"
    ACCEPTANCE_LINES.append(f"ACCEPTANCE {number:2d} {description}: {status}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    for line in sorted(ACCEPTANCE_LINES):
        terminalreporter.write_line(line)
    elapsed = session_elapsed()
    status = "PASS" if elapsed < 60.0 else "FAIL"
    terminalreporter.write_line(
        f"ACCEPTANCE 10 whole suite wall time {elapsed:.1f}s (budget 60s): {status}")


@pytest.fixture(scope="session")
def geo_model():
    return load_geobase(environment_path("geo"))


@pytest.fixture(scope="session")
def social_db():
    return load_social_db(environment_path("social"))


@pytest.fixture(scope="session")
def calendar_world():
    return load_world(environment_path("calendar"))


@pytest.fixture(scope="session")
def geoquery():
    return load_dataset(dataset_path("geoquery"))


@pytest.fixture(scope="session")
def geoquery_split(geoquery):
    return load_split(split_path("geoquery_iid"), geoquery)


@pytest.fixture(scope="session")
def overnight():
    return load_dataset(dataset_path("overnight"))


@pytest.fixture(scope="session")
def smcalflow():
    return load_dataset(dataset_path("smcalflow"))
