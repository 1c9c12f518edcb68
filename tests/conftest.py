"""Hypothesis profiles. ``--hypothesis-profile=ci`` draws the same examples
on every run, so a CI verdict does not depend on the draw; local runs keep
the default random profile."""

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
