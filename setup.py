"""Packaging metadata for the reproduction.

Plain ``setup.py`` on purpose: the build containers this repo targets
lack the ``wheel``/PEP 660 machinery, and the legacy setuptools
``develop`` path works everywhere ``pip install -e .`` does.  CI
installs ``pip install -e .[test]`` and runs the suite against the
installed package; the ``repro-map`` console script is the packaged
face of ``python -m repro.api``.
"""
from setuptools import find_packages, setup

setup(
    name="repro-taskmap",
    version="1.2.0",
    description=(
        "Reproduction of 'Fast and High Quality Topology-Aware Task "
        "Mapping' (IPDPS 2015) with a batch/serving execution engine"
    ),
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=[
        "numpy>=1.24",
        "scipy>=1.10",
    ],
    extras_require={
        # Everything the tier-1 suite needs beyond the runtime deps;
        # ruff is included so the gated lint test participates in CI.
        "test": [
            "pytest",
            "hypothesis",
            "pytest-benchmark",
            # Chaos tests kill workers and respawn pools; a hang there
            # must fail CI with a faulthandler traceback dump, not eat
            # the job's 30-minute budget.  CI passes --timeout on the
            # command line; local runs without the plugin still work.
            "pytest-timeout",
            "ruff",
        ],
    },
    entry_points={
        "console_scripts": [
            "repro-map = repro.api.cli:main",
        ],
    },
)
