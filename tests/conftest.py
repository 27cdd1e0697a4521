"""Hypothesis profiles.  With HYPOTHESIS_PROFILE=ci (set in the CI workflow)
every property test draws the same examples on every run, so a failure
there reproduces locally under the same variable."""
import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
