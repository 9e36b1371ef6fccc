"""Test-wide settings."""

from hypothesis import settings

# Property tests draw the same examples on every run, and a slow shared machine fails none
# of them on time alone.
settings.register_profile("repeatable", derandomize=True, deadline=None)
settings.load_profile("repeatable")
