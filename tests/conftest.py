"""Hypothesis profiles. Tier-1 runs hypothesis' default budget; the
`schema-fuzz` profile gives the schema-walking scenario test a larger one:

    python -m pytest --hypothesis-profile=schema-fuzz \
        "tests/test_scenario.py::test_a_scenario_drawn_from_the_schema_is_rejected_or_runs"
"""

from hypothesis import settings

settings.register_profile("schema-fuzz", max_examples=2000)
