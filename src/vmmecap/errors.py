"""Toolkit exception hierarchy.

Exit-code mapping used by the CLI: ConfigError -> 2 (a model class's
ParameterError met while building the configuration is reported as one),
model infeasibility (InstabilityError, InfeasibleError) -> 3, any other
toolkit error or an OSError -> 4.
"""


class VmmeCapError(Exception):
    """Base class for all toolkit errors."""


class ParameterError(VmmeCapError):
    """A distribution or model parameter violates its invariants."""


class ConfigError(VmmeCapError):
    """Bad configuration file or flag combination."""


class InstabilityError(VmmeCapError):
    """A queueing stage is driven at or beyond its service capacity."""

    def __init__(self, stage: str, lam: float, capacity: float):
        self.stage = stage
        self.capacity = capacity
        super().__init__(
            f"stage '{stage}' unstable: arrival rate {lam:g}/s >= capacity {capacity:g}/s"
        )


class InfeasibleError(VmmeCapError):
    """No feasible solution exists (e.g. no instance count meets the delay budget)."""

    def __init__(self, msg: str, stage: str | None = None):
        self.stage = stage
        super().__init__(msg)


class FieldError(ParameterError):
    """A model field outside its range. `field` names it, so the config layer
    can report the error under the field's own key."""

    def __init__(self, field: str, rule: str, value):
        self.field, self.rule, self.value = field, rule, value
        super().__init__(f"{field} must be {rule}, got {value!r}")
