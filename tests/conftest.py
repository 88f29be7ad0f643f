"""Hypothesis settings for the test suite.

With the environment variable CI set, the `ci` profile is loaded: a
failing property prints the blob that reproduces it
(`@reproduce_failure`), and no example database is kept between runs.
"""

import os

from hypothesis import settings

settings.register_profile("ci", print_blob=True, database=None)
if os.environ.get("CI"):
    settings.load_profile("ci")
