"""Shared test configuration.

``python -m pytest --hypothesis-profile=ci`` loads the ``ci`` profile:
property tests that take their budget from the loaded profile (the
engine fuzzer, ``RICH_NET_EXAMPLES`` in
``tests/integration/test_engine_equivalence.py``) then draw 200
examples.  Without the option every test keeps its own budget.
"""

from hypothesis import settings

settings.register_profile("ci", max_examples=200)
