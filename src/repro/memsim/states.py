"""Shared enums of the DRAM model: rank power states, powerdown modes
and the row-buffer outcome of an access."""

from __future__ import annotations

import enum


class RankPowerState(enum.Enum):
    """Power-relevant state of a DRAM rank (Section 2.1 / Micron model).

    ``ACTIVE_STANDBY``    -- some bank open, clock enabled (IDD3N)
    ``PRECHARGE_STANDBY`` -- all banks precharged, clock enabled (IDD2N)
    ``ACTIVE_POWERDOWN``  -- some bank open, CKE low (IDD3P)
    ``PRECHARGE_POWERDOWN`` -- all banks precharged, CKE low (IDD2P);
                            the state used both for idle power savings and
                            for frequency re-calibration (Section 3.1)
    ``SELF_REFRESH``      -- all banks precharged, CKE low, the device
                            refreshes itself (IDD6); external refresh is
                            suspended, entry needs tCKESR of CKE-low and
                            exit pays tXS before any command. Entered
                            only by explicit policy (rank parking), never
                            by the reactive powerdown modes.

    Each member carries ``column``, its index in the per-rank
    state-time integrals (``CounterFile.rank_state_ns``); members are
    defined in column order. ``SELF_REFRESH`` is last, so every older
    column keeps its index and the power model's row unpacking stays
    bit-identical when that column is all zeros. ``column`` is a plain
    attribute: the simulator indexes residency with it on every state
    change instead of hashing the member.
    """

    def __new__(cls, value: str, column: int) -> "RankPowerState":
        member = object.__new__(cls)
        member._value_ = value
        member.column = column
        return member

    ACTIVE_STANDBY = ("act_stby", 0)
    PRECHARGE_STANDBY = ("pre_stby", 1)
    ACTIVE_POWERDOWN = ("act_pd", 2)
    PRECHARGE_POWERDOWN = ("pre_pd", 3)
    SELF_REFRESH = ("self_ref", 4)

    @property
    def cke_low(self) -> bool:
        return self in (RankPowerState.ACTIVE_POWERDOWN,
                        RankPowerState.PRECHARGE_POWERDOWN,
                        RankPowerState.SELF_REFRESH)


class PowerdownMode(enum.Enum):
    """Idle power-management aggressiveness of the MC (Section 4.2.3).

    ``NONE``      -- ranks never enter powerdown (the paper's baseline)
    ``FAST_EXIT`` -- immediate fast-exit precharge powerdown (Fast-PD),
                     exit costs t_XP
    ``SLOW_EXIT`` -- immediate slow-exit precharge powerdown (Slow-PD),
                     exit costs t_XPDLL
    """

    NONE = "none"
    FAST_EXIT = "fast"
    SLOW_EXIT = "slow"


class AccessClass(enum.Enum):
    """Row-buffer outcome of an access (Eq. 6 categories)."""

    ROW_HIT = "hit"            #: open row matches — column access only
    OPEN_ROW_MISS = "ob_miss"  #: wrong row open — precharge + activate + column
    CLOSED_BANK_MISS = "cb_miss"  #: bank precharged — activate + column
