"""Exception types shared across the package."""


class ContractError(ValueError):
    """An argument violates a documented interface contract."""


class ConfigError(ValueError):
    """A configuration file, key, or value is invalid."""


class MetricWindowError(ValueError):
    """A metrics window is not finite, starts before 0, is empty or
    inverted, or holds no sample of the record."""


class SimulationDiverged(RuntimeError):
    """A state variable became non-finite during a run."""

    def __init__(self, step: int, detail: str):
        super().__init__(f"simulation diverged at step {step}: {detail}")
        self.step = step
        self.detail = detail
