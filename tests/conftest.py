"""Property tests draw a fixed sequence of examples, so every run of the
suite checks the same points, and none fails on a slow first draw."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
