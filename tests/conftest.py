"""Test configuration: a derandomized hypothesis profile for CI.

Select it with ``pytest --hypothesis-profile=ci``; examples are then drawn
from a fixed seed per test, so a CI run cannot flake on a new example.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
