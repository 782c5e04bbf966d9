"""Predictive switching controller with sorting-based submodule selection.

Each control step of :func:`mmcsim.testbench.simulate` works on every
phase leg at once, in the first three stages of the run engine's step
(``plant`` and ``link`` then advance the circuit):

1. ``targets``: deadbeat arm-voltage targets are computed so that, if
   synthesized exactly, the AC current lands on its reference and the
   circulating current lands on zero one period ahead.
2. ``rank`` (:func:`_rank`): each arm's SMs are ranked by a sorting
   policy:

   * ``V1F2`` ranks purely by capacitor voltage (ascending while the
     arm current charges, descending while it discharges), which keeps
     voltages tightly balanced at the cost of frequent re-switching.
   * ``F1V2`` puts the currently inserted SMs ahead of bypassed ones
     and ranks each group by the same voltage order, so existing ON
     states are reused and the device switching frequency drops.

   Both are one stable sort of one packed integer key per SM.

3. ``select``: candidate insertion counts come from bracketing each
   target between consecutive cumulative sums of the ranked voltages;
   the weighted objective is evaluated on the at-most-four count pairs
   and the minimizer is applied as a prefix of each ranking.

Sorting keys are the measured capacitor voltages at the decision
instant.  A stable sort with the physical SM index as the final
tiebreak makes every decision deterministic.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

__all__ = ["SortPolicy"]


class SortPolicy(Enum):
    """Submodule ranking policy used by the modulator."""

    V1F2 = "V1F2"   # voltage-first ranking, conventional balancing
    F1V2 = "F1V2"   # status-first ranking, reduced switching frequency


# ``status_first`` of an F1V2 arm: the sign bit of an int64 key.  A V1F2
# arm's is 0.
_STATUS_FIRST = np.iinfo(np.int64).min
# What an arm's voltage bits are XOR-ed with, by ``i_arm >= 0``: all but
# the sign bit while the current discharges (descending), none while it
# charges.
_VOLTAGE_FLIP = np.array([np.iinfo(np.int64).max, 0])
_ZERO = np.array(0.0)


def _rank(v_c, u, i_arm, status_first, arm, key) -> np.ndarray:
    """The ranking of each arm of a stack: the indices of its SMs along
    the last axis of ``v_c`` (float64) and ``u`` (int8 statuses), best
    first.  ``status_first`` (int64) and ``arm`` (intp) are tables of the
    same shape: each SM's policy and the flat index of its arm in
    ``i_arm``, the arms' currents.  ``key`` is int64 scratch of that
    shape.

    One stable sort of an int64 key per SM.  The bits of a positive
    double order as its value, so the key is ``v_c``'s bits, all but the
    sign bit flipped where ``not i_arm >= 0`` (descending), with the
    sign bit set for the inserted SMs of an arm whose ``status_first``
    is ``_STATUS_FIRST`` (F1V2; 0 for V1F2).  The order is that of
    (inserted first under F1V2, signed voltage, SM index): a voltage
    sort, then a stable promotion of the inserted SMs, in one pass.
    Capacitor voltages must be positive, as every healthy state's are.
    """
    flip = _VOLTAGE_FLIP.take(i_arm >= _ZERO, mode="clip").take(arm, mode="clip")
    np.bitwise_xor(v_c.view(np.int64), flip, out=key)
    status = flip   # reused: u * status_first, with u widened to int64 first
    status[...] = u
    np.multiply(status, status_first, out=status)
    return np.bitwise_or(key, status, out=key).argsort(axis=-1, kind="stable")
