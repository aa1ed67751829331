"""One Hypothesis profile for the whole suite: the same examples on every
run (derandomized), no example database written, and no per-example
deadline, which a loaded host would trip."""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")
