"""Shared fixtures and the acceptance-summary reporting hook."""

import pytest

from coopd2d import defaults

import oracles

# Acceptance tests append one "ACCEPTANCE n: PASS/FAIL ..." line each; the
# terminal-summary hook replays them after the run so the verdicts are visible
# whether or not output capture is on.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def ref_model():
    """Reference catalog: 300 files, cache 20, beta 1."""
    return defaults.reference_popularity()


@pytest.fixture(scope="session")
def uniform_model():
    """Reference catalog at beta 0 (uniform popularity)."""
    return defaults.reference_popularity(beta=0.0)


@pytest.fixture(scope="session")
def ref_plan():
    """75 m hotspot, 9 clusters of 15 users."""
    return defaults.reference_plan()


@pytest.fixture(scope="session")
def ref_radio():
    return defaults.reference_radio()


@pytest.fixture(scope="session")
def ref_geom():
    """Truncated moments at (alpha, r_min) = (3.68, 1 m / 25 m)."""
    return defaults.reference_geometry()


@pytest.fixture(scope="session")
def two_group():
    """Two-group toy catalog with probabilities (0.7, 0.3)."""
    return oracles.make_synthetic_model([0.7, 0.3])
