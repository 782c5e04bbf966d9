"""Fixed-step simulation of a modular multilevel converter under
predictive sorted-selection switching control.

The package splits along the physical boundaries of the problem:

* :mod:`mmcsim.model` — the converter's electrical constants.
* :mod:`mmcsim.controller` — the capacitor sorting policies.
* :mod:`mmcsim.metrics` — switching frequency, ripple, circulating
  ratio, tracking error, powers.
* :mod:`mmcsim.testbench` — grid, DC link, scenarios, and the run
  engine that steps controller and plant for every phase leg at once.
* :mod:`mmcsim.config` / :mod:`mmcsim.csvio` / :mod:`mmcsim.cli` —
  configuration files, deterministic CSV persistence, and the
  ``mmcsim`` command.
"""

from .controller import SortPolicy
from .errors import (
    ConfigError,
    ContractError,
    MetricWindowError,
    SimulationDiverged,
)
from .metrics import RunRecord, SummaryMetrics, summarize
from .model import ConverterParams
from .testbench import (
    DcLink,
    GridSource,
    Scenario,
    build_stock_system,
    run_scenario,
    simulate,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ContractError",
    "ConverterParams",
    "DcLink",
    "GridSource",
    "MetricWindowError",
    "RunRecord",
    "Scenario",
    "SimulationDiverged",
    "SortPolicy",
    "SummaryMetrics",
    "build_stock_system",
    "run_scenario",
    "simulate",
    "summarize",
    "__version__",
]
