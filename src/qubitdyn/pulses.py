"""Smooth pulse envelopes and gate scheduling.

All envelopes are built from Gaussians and error functions so that every
derivative used in the work/power bookkeeping is analytic.  Shapes:

* Gaussian gate pulse   sqrt(pi)/(2 tau) exp(-((t-t0)/tau)^2), area pi/2,
  which drives a pi rotation of the polarization vector about the gate
  generator's axis.
* Soft square           N 0.5 [erf((t-t1)/tau) - erf((t-t2)/tau)], with a
  normalization factor N for gate area pi/2, unit area, or unit peak.
* Bias pulse            peak-normalized soft square that switches the
  level splitting off across a gate window so precession halts while the
  gate acts.
* Smooth step           (1 + erf(t/a))/2 for slow axis reorientation.
* Measurement window    unit-peak soft square of width pi/Gamma with edge
  width one percent of the width, plus the bias hold that keeps
  precession off while it acts.

A pulse's support is the interval outside which it is numerically zero
(8 widths past the edges, below 1e-27 of peak); integrators refine their
step inside supports.

Gate scheduling rests on one identity: an erf edge integrates exactly
like a sharp step at its midpoint, so a bias pulse with edge midpoints
m1 and m2 suppresses precession for exactly m2 - m1 = window + 4 tau
(its frozen span), no matter the edge width.  Gate i's bias rise
midpoint is anchored at i*T_D plus the frozen spans of all earlier
gates, which makes the accumulated free-precession phase at every gate
center an exact multiple of 2 pi; the gate unitary then acts in the
unrotated frame.  The replication time t_final adds n_tail >= 1 Larmor
periods after the last frozen span so the final sample clears the bias
fall edge at zero accumulated phase, where the evolved state equals the
instantaneous gate product applied to rho(0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .spincore import SIGMA1, SIGMA3

SUPPORT_WIDTHS = 8.0

GATE_GENERATORS = {
    "not": SIGMA1,
    "hadamard": (SIGMA1 + SIGMA3) / math.sqrt(2.0),
}


@dataclass(frozen=True)
class GaussianPulse:
    """Gaussian gate envelope with area pi/2."""

    t0: float
    tau: float

    def value(self, t: float) -> float:
        x = (t - self.t0) / self.tau
        return math.sqrt(math.pi) / (2.0 * self.tau) * math.exp(-x * x)

    def derivative(self, t: float) -> float:
        x = (t - self.t0) / self.tau
        return self.value(t) * (-2.0 * x / self.tau)

    def area(self) -> float:
        return 0.5 * math.pi

    def support(self) -> tuple[float, float]:
        return (self.t0 - SUPPORT_WIDTHS * self.tau, self.t0 + SUPPORT_WIDTHS * self.tau)


NORMALIZATIONS = ("gate", "unit-peak", "unit-area")


def _erf_window(t: float, t1: float, t2: float, tau: float) -> float:
    """Raw soft-square window 0.5 [erf((t-t1)/tau) - erf((t-t2)/tau)]."""
    return 0.5 * (math.erf((t - t1) / tau) - math.erf((t - t2) / tau))


def _erf_window_dot(t: float, t1: float, t2: float, tau: float) -> float:
    """Time derivative of _erf_window."""
    x1 = (t - t1) / tau
    x2 = (t - t2) / tau
    return (math.exp(-x1 * x1) - math.exp(-x2 * x2)) / (math.sqrt(math.pi) * tau)


@dataclass(frozen=True)
class SoftSquarePulse:
    """Soft square window between t1 and t2 with erf edges of width tau."""

    t1: float
    t2: float
    tau: float
    normalization: str = "unit-peak"

    def __post_init__(self):
        if self.t2 <= self.t1:
            raise ValueError("soft square needs t2 > t1")
        if self.normalization not in NORMALIZATIONS:
            raise ValueError(f"unknown normalization {self.normalization!r}")

    def norm_factor(self) -> float:
        width = self.t2 - self.t1
        if self.normalization == "gate":
            return 0.5 * math.pi / width
        if self.normalization == "unit-area":
            return 1.0 / width
        # raw midpoint value is erf(width / (2 tau))
        return 1.0 / math.erf(0.5 * width / self.tau)

    def value(self, t: float) -> float:
        return self.norm_factor() * _erf_window(t, self.t1, self.t2, self.tau)

    def derivative(self, t: float) -> float:
        return self.norm_factor() * _erf_window_dot(t, self.t1, self.t2, self.tau)

    def area(self) -> float:
        return self.norm_factor() * (self.t2 - self.t1)

    def support(self) -> tuple[float, float]:
        return (self.t1 - SUPPORT_WIDTHS * self.tau, self.t2 + SUPPORT_WIDTHS * self.tau)


@dataclass(frozen=True)
class BiasPulse:
    """Peak-normalized soft square that suppresses the level splitting.

    Equals 1 at its midpoint exactly and stays within 1e-6 of 1 across the
    gate window it straddles (edges sit 2 gate-tau outside the window and
    the edge width is half the gate tau).
    """

    t1_tilde: float
    t2_tilde: float
    tau: float

    def __post_init__(self):
        if self.t2_tilde <= self.t1_tilde:
            raise ValueError("bias window needs t2_tilde > t1_tilde")

    def _peak(self) -> float:
        return math.erf(0.5 * (self.t2_tilde - self.t1_tilde) / self.tau)

    def value(self, t: float) -> float:
        return _erf_window(t, self.t1_tilde, self.t2_tilde, self.tau) / self._peak()

    def derivative(self, t: float) -> float:
        return _erf_window_dot(t, self.t1_tilde, self.t2_tilde, self.tau) / self._peak()

    def support(self) -> tuple[float, float]:
        return (
            self.t1_tilde - SUPPORT_WIDTHS * self.tau,
            self.t2_tilde + SUPPORT_WIDTHS * self.tau,
        )


@dataclass(frozen=True)
class SmoothStep:
    """Monotone step (1 + erf((t - t0)/a))/2 rising from 0 to 1 around t0."""

    t0: float
    a: float

    def value(self, t: float) -> float:
        return 0.5 * (1.0 + math.erf((t - self.t0) / self.a))

    def derivative(self, t: float) -> float:
        x = (t - self.t0) / self.a
        return math.exp(-x * x) / (self.a * math.sqrt(math.pi))

    def support(self) -> tuple[float, float]:
        # outside this the step is constant; only the transition needs refinement
        return (self.t0 - SUPPORT_WIDTHS * self.a, self.t0 + SUPPORT_WIDTHS * self.a)


@dataclass(frozen=True)
class MeasurementWindow:
    """Soft measurement window; width pi/Gamma attenuates transverse
    polarization by e^(-2 pi)."""

    t1: float
    t2: float
    r: float
    direction: tuple[float, float, float]

    def __post_init__(self):
        d = np.asarray(self.direction, dtype=float)
        if d.shape != (3,) or not math.isclose(float(np.linalg.norm(d)), 1.0, abs_tol=1e-9):
            raise ValueError("measurement direction must be a unit 3-vector")

    @classmethod
    def for_rate(cls, t1: float, gamma: float, direction) -> "MeasurementWindow":
        """Window sized by the measurement rate: t2 - t1 = pi/Gamma, edges 1% of that."""
        if gamma <= 0.0:
            raise ValueError("measurement rate must be positive")
        tau_m = math.pi / gamma
        d = np.asarray(direction, dtype=float)
        d = d / float(np.linalg.norm(d))
        return cls(t1=t1, t2=t1 + tau_m, r=tau_m / 100.0, direction=(d[0], d[1], d[2]))

    def envelope(self) -> SoftSquarePulse:
        return SoftSquarePulse(self.t1, self.t2, self.r, "unit-peak")

    def support(self) -> tuple[float, float]:
        return self.envelope().support()

    def hold(self) -> BiasPulse:
        """Bias pulse holding precession off across the support, to below
        1e-8: its edge midpoints sit 4 r outside it."""
        lo, hi = self.support()
        return BiasPulse(lo - 4.0 * self.r, hi + 4.0 * self.r, self.r)


@dataclass(frozen=True)
class GateEvent:
    """One scheduled gate: Gaussian drive plus the bias that freezes precession.

    t_anchor is the Larmor grid point carrying the event; the Gaussian
    window [t1, t2] sits 2 tau after it and the bias straddles the window
    by 2 tau on both sides, so the bias rise midpoint is exactly t_anchor.
    """

    kind: str
    generator: np.ndarray = field(repr=False)
    pulse: GaussianPulse
    bias: BiasPulse
    t_anchor: float
    t1: float
    t2: float

    def support(self) -> tuple[float, float]:
        lo1, hi1 = self.pulse.support()
        lo2, hi2 = self.bias.support()
        return (min(lo1, lo2), max(hi1, hi2))

    @property
    def frozen_span(self) -> float:
        """Duration of suppressed precession: the bias midpoint span."""
        return self.bias.t2_tilde - self.bias.t1_tilde

    @property
    def t_complete(self) -> float:
        """Time by which the event (bias fall edge included) is over."""
        return self.support()[1]


def make_gate(kind: str, t_anchor: float, window: float, tau: float | None = None) -> GateEvent:
    """Build a gate event anchored at a Larmor grid time.

    window is the Gaussian window width t2 - t1; tau defaults to window/16
    so the +-8 tau support exactly fills the window.
    """
    if kind not in GATE_GENERATORS:
        raise ValueError(f"unknown gate kind {kind!r}; expected one of {sorted(GATE_GENERATORS)}")
    if window <= 0.0:
        raise ValueError("gate window must be positive")
    if tau is None:
        tau = window / 16.0
    if tau <= 0.0:
        raise ValueError("gate tau must be positive")
    t1 = t_anchor + 2.0 * tau
    t2 = t1 + window
    return GateEvent(
        kind=kind,
        generator=GATE_GENERATORS[kind],
        pulse=GaussianPulse(t0=0.5 * (t1 + t2), tau=tau),
        bias=BiasPulse(t1_tilde=t1 - 2.0 * tau, t2_tilde=t2 + 2.0 * tau, tau=0.5 * tau),
        t_anchor=t_anchor,
        t1=t1,
        t2=t2,
    )


@dataclass(frozen=True)
class GateSchedule:
    """Gate events on the Larmor grid plus the replication time t_final."""

    gates: tuple[GateEvent, ...]
    t_final: float
    t_delay: float
    larmor_period: float


def build_schedule(
    kinds,
    n_delay: int,
    omega_l: float,
    window: float,
    tau: float | None = None,
    n_tail: int = 1,
) -> GateSchedule:
    """Schedule gates with T_D = n_delay Larmor periods between them.

    Gate i (1-based) anchors its bias rise midpoint at
    i*T_D + (i-1)*frozen_span, so the free-precession phase at every gate
    center is an exact multiple of 2 pi regardless of the gate kinds.
    The returned t_final = N*T_D + N*frozen_span + n_tail*T_L is where
    the evolved state reproduces the instantaneous gate product applied
    to rho(0); n_tail >= 1 keeps it clear of the last bias fall edge.
    """
    if n_delay < 1:
        raise ValueError("n_delay must be at least 1")
    if omega_l <= 0.0:
        raise ValueError("omega_l must be positive")
    t_l = 2.0 * math.pi / omega_l
    t_d = n_delay * t_l
    kinds = tuple(kinds)
    if kinds and n_tail < 1:
        raise ValueError("n_tail must be at least 1 so t_final clears the last bias edge")
    if tau is None and kinds:
        tau = window / 16.0
    span = window + 4.0 * tau if kinds else 0.0
    gates = tuple(
        make_gate(kind, t_anchor=(i + 1) * t_d + i * span, window=window, tau=tau)
        for i, kind in enumerate(kinds)
    )
    if gates:
        min_gap = t_d - (span + 16.0 * gates[0].bias.tau)
        if min_gap <= 0.0:
            raise ValueError("gate events overlap: n_delay*T_L must exceed the bias support")
    t_final = len(kinds) * (t_d + span) + n_tail * t_l
    return GateSchedule(gates=gates, t_final=t_final, t_delay=t_d, larmor_period=t_l)
