"""Every hypothesis test draws the same examples on every run: a property
test fails or passes for the code, not for the seed."""

from hypothesis import settings

settings.register_profile("catphase", derandomize=True, deadline=None)
settings.load_profile("catphase")
