"""Predictive switching controller with sorting-based submodule selection.

Each control step of :func:`mmcsim.testbench.simulate` works on every
phase leg at once:

1. Deadbeat arm-voltage targets are computed so that, if synthesized
   exactly, the AC current lands on its reference and the circulating
   current lands on zero one period ahead.
2. Each arm's SMs are ranked by a sorting policy:

   * ``V1F2`` ranks purely by capacitor voltage (ascending while the
     arm current charges, descending while it discharges), which keeps
     voltages tightly balanced at the cost of frequent re-switching.
   * ``F1V2`` applies the same voltage ranking, then stably moves all
     currently inserted SMs ahead of bypassed ones, so existing ON
     states are reused and the device switching frequency drops.

3. Candidate insertion counts come from bracketing each target between
   consecutive cumulative sums of the ranked voltages; the weighted
   objective is evaluated on the at-most-four count pairs and the
   minimizer is applied as a prefix of each ranking.

Sorting keys are the measured capacitor voltages at the decision
instant.  Stable sorts with the physical SM index as the final tiebreak
make every decision deterministic.
"""

from __future__ import annotations

from enum import Enum

__all__ = ["SortPolicy"]


class SortPolicy(Enum):
    """Submodule ranking policy used by the modulator."""

    V1F2 = "V1F2"   # voltage-first ranking, conventional balancing
    F1V2 = "F1V2"   # status-first ranking, reduced switching frequency
