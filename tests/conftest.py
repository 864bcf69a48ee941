"""Hypothesis profiles for the test suite.

``--hypothesis-profile=ci`` draws the same examples on every run and prints
a failing example's reproduction blob, so a CI failure can be replayed with
``@reproduce_failure``. Local runs keep the default profile, and every test
keeps its own example count.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
