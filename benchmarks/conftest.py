"""Benchmark fixtures: one shared workload cache per session.

Profile selection: ``REPRO_PROFILE`` environment variable (default
``ci``).  Use ``REPRO_PROFILE=smoke`` for a fast sanity sweep or
``REPRO_PROFILE=paper`` for the publication's scales (hours).
"""

import pytest

from repro.experiments.harness import WorkloadCache
from repro.experiments.profiles import profile_from_env


@pytest.fixture(scope="session")
def profile():
    return profile_from_env(default="ci")


@pytest.fixture(scope="session")
def cache(profile):
    return WorkloadCache(profile)
