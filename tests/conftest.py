"""Shared test settings: one fixed profile for the hypothesis property tests.

The profile is derandomized with a bounded example count, so every run
draws the same examples and takes the same time.  There is no deadline:
an example may discretize a small grid, whose time varies with the machine.
"""

from hypothesis import settings

settings.register_profile(
    "covlab", derandomize=True, max_examples=100, deadline=None, database=None
)
settings.load_profile("covlab")
