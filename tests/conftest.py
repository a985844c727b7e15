"""Suite-wide test configuration.

Hypothesis properties draw fresh examples on every local run, which is
how they keep exploring.  Under continuous integration (``CI`` set, as
GitHub Actions does) they run the ``ci`` profile instead: the draws are
derived from each test alone, so a job cannot fail on a new random
draw, and a failure prints the blob that reproduces it
(``@reproduce_failure``).
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)

if os.environ.get("CI"):
    settings.load_profile("ci")
