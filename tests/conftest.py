"""Test-suite settings.

Hypothesis runs derandomized, with a bounded example count and no per-example
deadline, so every run draws the same examples and takes about the same time.
"""

from hypothesis import settings

settings.register_profile("ipsim", derandomize=True, max_examples=200, deadline=None, database=None)
settings.load_profile("ipsim")
