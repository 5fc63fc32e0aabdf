"""Test-wide settings: every Hypothesis test runs one derandomized profile."""

from hypothesis import settings

# a fixed example sequence keeps tier-1 reproducible; the numeric kernels have no useful deadline
settings.register_profile("phasechain", derandomize=True, deadline=None)
settings.load_profile("phasechain")
