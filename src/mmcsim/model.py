"""Electrical constants of a modular multilevel converter.

One phase leg consists of an upper and a lower arm, each a series string
of ``n`` half-bridge submodules (SMs).  An inserted SM (status 1) places
its capacitor in the arm path; a bypassed SM (status 0) is shorted out.
The plant advances on a fixed sampling period ``T_s``:

* inserted capacitors integrate their arm current (forward Euler, with
  the arm current held at its start-of-step value),
* the synthesized arm voltages then drive the AC-side current through
  the combined inductance ``L + l_arm/2``,
* the arm-voltage sum error against the DC bus drives the circulating
  current through the two arm inductors.

:func:`mmcsim.testbench.simulate` steps that plant for every phase leg
at once; this module holds the constants it is stepped with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ContractError

__all__ = ["ConverterParams"]


# ===== PARAMETERS =====


@dataclass(frozen=True)
class ConverterParams:
    """Electrical constants of one converter and its controller weights.

    Attributes
    ----------
    n : int
        Submodules per arm.
    R : float
        AC-side series resistance [ohm].
    L : float
        AC-side series inductance [H].
    l_arm : float
        Arm inductance [H].
    C : float
        Submodule capacitance [F].
    V_dc : float
        Nominal DC bus voltage [V].
    T_s : float
        Sampling period [s].
    w : float
        Weight on the AC-current tracking error (dimensionless).
    w_z : float
        Weight on the circulating-current error (dimensionless).
    """

    n: int
    R: float
    L: float
    l_arm: float
    C: float
    V_dc: float
    T_s: float
    w: float = 1.0
    w_z: float = 1.0

    def __post_init__(self):
        if self.n < 1:
            raise ContractError(f"n must be a positive integer, got {self.n}")
        for name in ("R", "L", "l_arm", "C", "V_dc", "T_s"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0.0:
                raise ContractError(f"{name} must be finite and > 0, got {value}")
        if not (0.0 <= self.w < math.inf and 0.0 <= self.w_z < math.inf):
            raise ContractError("weights w and w_z must be finite and >= 0")
        if self.w == 0.0 and self.w_z == 0.0:
            raise ContractError("weights w and w_z must not both be zero")

    @property
    def L_prime(self) -> float:
        """Combined AC-loop inductance L + l_arm/2 [H]."""
        return self.L + 0.5 * self.l_arm

    @property
    def K_prime(self) -> float:
        """Discrete AC-loop stiffness R + L_prime/T_s [ohm]."""
        return self.R + self.L_prime / self.T_s

    @property
    def v_sm_nominal(self) -> float:
        """Nominal submodule capacitor voltage V_dc/n [V]."""
        return self.V_dc / self.n
