"""Curriculum schedules.

Three decreasing schedule shapes (linear, exponential, parabolic) drive two
weights during training: the coarse-branch loss weight, which moves the
optimization focus from the conventionally trained branch to the
curriculum-trained branch between iterations ``k1`` and ``k2``, and the
per-predicate head weight, which decays the contribution of abundant
predicates from ``k1`` to the end of training. Both are floored (beta1,
beta2) so neither the coarse branch nor the head predicates are ever
assigned zero weight.

``ScheduleConfig`` is the one source of the schedule's settings: its
defaults are the desk-scale schedule, and it checks every value, ``nu``
included, whatever the kind.
"""

from dataclasses import dataclass

from .numerics import ConfigurationError

SCHEDULE_KINDS = ("linear", "exponential", "parabolic")


@dataclass(frozen=True)
class ScheduleConfig:
    """Iteration breakpoints and floors for the two curriculum weights.

    The defaults are the desk-scale schedule: the reference setting of 40k
    iterations with breakpoints at 10k/20k, scaled down by 10 with all
    ratios kept. head_threshold is the sample-count bound above which a
    predicate counts as a head predicate; 52 separates the 16 designed head
    predicates of the default generator config.
    """

    k1: int = 1000
    k2: int = 2000
    total_iterations: int = 4000
    beta1: float = 0.1
    beta2: float = 0.2
    head_threshold: int = 52
    kind: str = "linear"
    nu: float = 0.01

    def __post_init__(self):
        # each check is written so that NaN fails it
        if not (0 < self.k1 < self.k2 <= self.total_iterations):
            raise ConfigurationError(
                "breakpoints must satisfy 0 < k1 < k2 <= total_iterations, got "
                f"k1={self.k1}, k2={self.k2}, total={self.total_iterations}"
            )
        if not (0.0 <= self.beta1 <= 1.0 and 0.0 <= self.beta2 <= 1.0):
            raise ConfigurationError("beta1 and beta2 must lie in [0, 1]")
        if self.kind not in SCHEDULE_KINDS:
            raise ConfigurationError(f"unknown schedule kind {self.kind!r}")
        if not (0.0 < self.nu < 1.0):
            raise ConfigurationError("nu must lie in (0, 1)")
        if not self.head_threshold >= 0:
            raise ConfigurationError("head_threshold must be nonnegative")


def schedule_value(kind, t, total, nu=ScheduleConfig.nu):
    """Decreasing schedule in [0, 1]: 1 at t=0, floor value at t=total.

    linear: 1 - t/T; exponential: nu**(t/T); parabolic: 1 - (t/T)**2.
    nu defaults to ``ScheduleConfig``'s and is checked here as well, since a
    caller may pass its own without a ScheduleConfig.
    """
    if total <= 0:
        raise ValueError(f"schedule horizon must be positive, got {total}")
    if t < 0 or t > total:
        raise ValueError(f"schedule argument t={t} outside [0, {total}]")
    frac = t / total
    if kind == "linear":
        return 1.0 - frac
    if kind == "exponential":
        if not (0.0 < nu < 1.0):
            raise ValueError("exponential schedule needs 0 < nu < 1")
        return nu**frac
    if kind == "parabolic":
        return 1.0 - frac * frac
    raise ValueError(f"unknown schedule kind {kind!r}")


def branch_weight(k, cfg):
    """Coarse-branch loss weight at iteration k.

    1 through k1, the configured schedule shape (floored at beta1) from k1
    to k2, then the beta1 plateau.
    """
    if k < 0:
        raise ValueError("iteration must be nonnegative")
    if k <= cfg.k1:
        return 1.0
    if k <= cfg.k2:
        phi = schedule_value(cfg.kind, k - cfg.k1, cfg.k2 - cfg.k1, cfg.nu)
        return max(phi, cfg.beta1)
    return cfg.beta1


def head_predicate_weight(k, is_head, cfg):
    """Per-predicate curriculum weight at iteration k.

    Tail predicates always get weight 1. Head predicates stay at 1 through
    k1 (full head focus while only the coarse branch trains), then decay
    along the configured shape over (k1, total], floored at beta2.
    """
    if k < 0:
        raise ValueError("iteration must be nonnegative")
    if not is_head:
        return 1.0
    if k <= cfg.k1:
        return 1.0
    horizon = cfg.total_iterations - cfg.k1
    t = min(k - cfg.k1, horizon)
    phi = schedule_value(cfg.kind, t, horizon, cfg.nu)
    return max(phi, cfg.beta2)
