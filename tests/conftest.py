"""Shared test settings: every hypothesis property runs derandomized, with no
deadline and no example database, so a run replays the same examples."""

from hypothesis import settings

settings.register_profile("decaylab", deadline=None, derandomize=True, database=None)
settings.load_profile("decaylab")
