"""Hypothesis profiles. Tier-1 runs hypothesis' default budget; the
`schema-fuzz` profile gives the schema-walking scenario test a larger one,
and `log-fuzz` the event-log loader's property:

    python -m pytest --hypothesis-profile=schema-fuzz \
        "tests/test_scenario.py::test_a_scenario_drawn_from_the_schema_is_rejected_or_runs"
    python -m pytest --hypothesis-profile=log-fuzz \
        "tests/test_metrics.py::test_batch_load_equals_the_per_line_loop"
"""

from hypothesis import settings

settings.register_profile("schema-fuzz", max_examples=2000)
settings.register_profile("log-fuzz", max_examples=1000)
