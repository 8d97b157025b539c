import random

import pytest

from lie_thomas.reduction import proved_stratum

_ACCEPTANCE = []


def pytest_addoption(parser):
    parser.addoption(
        "--seed",
        type=int,
        default=20260815,
        help="seed for randomized property tests",
    )


@pytest.fixture
def seed(request) -> int:
    return request.config.getoption("--seed")


@pytest.fixture
def rng(seed) -> random.Random:
    return random.Random(seed)


@pytest.fixture
def cold():
    """The reduction strata unproved, before and after the test."""
    proved_stratum.cache_clear()
    yield
    proved_stratum.cache_clear()


def record_criterion(number: int, description: str, passed: bool) -> None:
    _ACCEPTANCE.append((number, description, passed))


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for number, description, passed in sorted(_ACCEPTANCE):
        terminalreporter.write_line(
            "criterion %2d %s: %s"
            % (number, "PASS" if passed else "FAIL", description)
        )
