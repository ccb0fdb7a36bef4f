"""Deterministic simulator for a leader-follower inpatient-care robot swarm.

Subsystems:

- ``rng``             named random streams and symmetric uniform-draw ranges
- ``kinematics``      differential-drive ground truth and dead reckoning
- ``track``           painted-line polyline, its queries and segment headings
- ``line_following``  5-way IR sensor model and PID steering
- ``rf_channel``      lossy addressed 2.4 GHz-style unicast channel
- ``protocol``        leader-follower task delegation state machines
- ``vitals``          wearable noise models, threshold triage, fall detector
- ``ml``              from-scratch KNN / decision tree / random forest triage
- ``scenario``        config files, validation, shipped presets
- ``engine``          fixed-timestep run loop, run exports, scenario suites
- ``metrics``         event log, metric folds and replay of a saved log
- ``cli``             the ``wardsim`` command: run, suite, replay, mlbench
"""

__version__ = "0.1.0"


class ConfigurationError(ValueError):
    """Invalid parameter or configuration value."""


def require(*checks: tuple[bool, str]):
    """Raise one ConfigurationError that names, joined by "; ", the message
    of every `(holds, message)` check whose condition does not hold."""
    failed = [message for holds, message in checks if not holds]
    if failed:
        raise ConfigurationError("; ".join(failed))


class AddressingError(RuntimeError):
    """Packet sent to an address that does not exist in the scenario."""


class InvariantError(RuntimeError):
    """Internal simulator invariant violated; the run must abort."""
