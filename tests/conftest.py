"""Hypothesis profiles. Tier-1 runs hypothesis' default budget; the
`schema-fuzz` profile gives the schema-walking scenario test a larger one,
`log-fuzz` the event-log loader's properties, the line writers' one and the
export rows' one,
`protocol-fuzz` the check that the event-driven leader equals one that does
its full pass every step, `hostile-link` the engine's runs over a link that
duplicates packets, and `corridor-fuzz` the checks that the corridor tick's
rewritten helpers (`line_error` with its fixed weights, `apply_control` with
its fixed cap, `sensor_positions`), `MotionSimulator.step` (with its slip,
stream and bias all given), `DeadReckoner.update` and
`Channel.send` equal the expressions they replaced (for `Channel.send`, the
`packet_send` payloads it returns and the packets it queues, with the
jitter drawn by `Generator.uniform`), that `symmetric_range`
draws equal `Generator.uniform`'s, that `Track`'s headings equal atan2
of the reference tangents, that a query on its candidate grid equals a
full scan, and that `simulate_ir` detects the line exactly where a sensor is
on the mat and within half a line width of it, checked on the lines, on cell
edges and on and off the mats' borders; the `corridor_oracle` marker selects
those:

    python -m pytest --hypothesis-profile=schema-fuzz \
        "tests/test_scenario.py::test_a_scenario_drawn_from_the_schema_is_rejected_or_runs"
    python -m pytest --hypothesis-profile=log-fuzz \
        "tests/test_metrics.py::test_batch_load_equals_the_per_line_loop" \
        "tests/test_metrics.py::test_save_writes_what_to_jsonl_writes_at_the_batch_edges" \
        "tests/test_metrics.py::test_the_line_writers_write_what_json_dumps_writes" \
        "tests/test_metrics.py::test_the_export_rows_equal_a_walk_per_file_for_changed_records"
    python -m pytest --hypothesis-profile=protocol-fuzz \
        "tests/test_protocol.py::test_the_event_driven_leader_equals_one_that_steps_in_full"
    python -m pytest --hypothesis-profile=hostile-link \
        "tests/test_engine.py::test_any_duplicating_link_leaves_triage_in_sample_order_and_each_task_run_once"
    python -m pytest --hypothesis-profile=corridor-fuzz -m corridor_oracle \
        tests/test_line_following.py tests/test_kinematics.py tests/test_rf_channel.py \
        tests/test_rng.py tests/test_track.py

Every test must leave CPython's cyclic garbage collector enabled: the
engine run and the event-log loader pause it and must turn it back on, and a
test that left it off would run every later test without it.
"""

import gc

import pytest
from hypothesis import settings

settings.register_profile("schema-fuzz", max_examples=2000)
settings.register_profile("log-fuzz", max_examples=1000)
settings.register_profile("protocol-fuzz", max_examples=1000)
settings.register_profile("hostile-link", max_examples=1000)
settings.register_profile("corridor-fuzz", max_examples=1000)


@pytest.fixture(autouse=True)
def collector_left_enabled():
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the test left the cyclic garbage collector disabled")
