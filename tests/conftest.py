"""Every hypothesis test runs derandomized, with no example database and no
deadline, so each run draws the same examples; each sets its ``max_examples``."""

from hypothesis import settings

settings.register_profile("thermalops", derandomize=True, database=None, deadline=None)
settings.load_profile("thermalops")
