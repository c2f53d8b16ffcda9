"""Shared pytest set-up: a reproducible hypothesis profile for CI runs.

When the CI environment variable is set, failing examples are printed as a
@reproduce_failure blob and no example database is kept, since a CI runner
keeps none between runs; the blob replays the failure anywhere.
"""

import os

from hypothesis import settings

settings.register_profile("ci", print_blob=True, database=None)
if os.environ.get("CI"):
    settings.load_profile("ci")
