"""Test-wide hypothesis settings.

Every property test draws the same examples on every run: the profile
seeds hypothesis from each test's own hash (`derandomize=True`, which
also turns off the example database), so two runs of the suite run the
same cases.  Each test keeps its own `max_examples`.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
