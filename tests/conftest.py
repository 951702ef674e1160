"""Shared fixtures and the acceptance-summary reporting hook."""

from dataclasses import replace

import pytest

from coopd2d import ExperimentSpec, analytic_point

import oracles

# The reference scenario is ExperimentSpec's field defaults.
REFERENCE = ExperimentSpec(command="simulate")

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
def ref_point():
    """The analytic pipeline at the reference scenario."""
    return analytic_point(REFERENCE)


@pytest.fixture(scope="session")
def ref_model(ref_point):
    """Reference catalog: 300 files, cache 20, beta 1."""
    return ref_point.model


@pytest.fixture(scope="session")
def uniform_model():
    """Reference catalog at beta 0 (uniform popularity)."""
    return analytic_point(replace(REFERENCE, beta=0.0)).model


@pytest.fixture(scope="session")
def ref_plan(ref_point):
    """75 m hotspot, 9 clusters of 15 users."""
    return ref_point.plan


@pytest.fixture(scope="session")
def ref_radio(ref_point):
    return ref_point.radio


@pytest.fixture(scope="session")
def ref_geom(ref_point):
    """Truncated moments at (alpha, r_min) = (3.68, 1 m / 25 m)."""
    return ref_point.geom


@pytest.fixture(scope="session")
def two_group():
    """Two-group toy catalog with probabilities (0.7, 0.3)."""
    return oracles.make_synthetic_model([0.7, 0.3])
