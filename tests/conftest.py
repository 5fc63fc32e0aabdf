"""Test-wide settings: every Hypothesis test runs one derandomized profile; child processes import this package."""

import os
from pathlib import Path

from hypothesis import settings

import phasechain

# a fixed example sequence keeps tier-1 reproducible; the numeric kernels have no useful deadline
settings.register_profile("phasechain", derandomize=True, deadline=None)
settings.load_profile("phasechain")


def child_env() -> dict:
    """The environment for a child Python that must import the phasechain these tests import, installed or not."""
    return dict(os.environ, PYTHONPATH=str(Path(phasechain.__file__).resolve().parents[1]))
