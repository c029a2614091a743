import math

import numpy as np
import pytest

from dualrel.numerics import ConfigurationError
from dualrel.schedules import (
    SCHEDULE_KINDS,
    ScheduleConfig,
    branch_weight,
    head_predicate_weight,
    schedule_value,
)

REFERENCE = ScheduleConfig(
    k1=10_000, k2=20_000, total_iterations=40_000, beta1=0.1, beta2=0.2,
    head_threshold=10_000,
)


class TestScheduleValue:
    def test_linear_midpoint(self):
        assert schedule_value("linear", 50.0, 100.0) == 0.5

    def test_parabolic_midpoint(self):
        assert schedule_value("parabolic", 50.0, 100.0) == 0.75

    def test_exponential_endpoint(self):
        assert schedule_value("exponential", 100.0, 100.0, nu=0.1) == pytest.approx(0.1)

    def test_starts_at_one(self):
        for kind in SCHEDULE_KINDS:
            assert schedule_value(kind, 0.0, 10.0) == 1.0

    def test_range_and_monotonicity(self):
        grid = np.linspace(0.0, 100.0, 1000)
        for kind in SCHEDULE_KINDS:
            values = [schedule_value(kind, t, 100.0) for t in grid]
            assert all(0.0 <= v <= 1.0 for v in values)
            assert all(a >= b for a, b in zip(values, values[1:]))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            schedule_value("linear", 11.0, 10.0)
        with pytest.raises(ValueError):
            schedule_value("linear", -1.0, 10.0)
        with pytest.raises(ValueError):
            schedule_value("linear", 1.0, 0.0)
        with pytest.raises(ValueError):
            schedule_value("spline", 1.0, 10.0)


class TestBranchWeight:
    def test_first_phase(self):
        assert branch_weight(5_000, REFERENCE) == 1.0

    def test_linear_midpoint(self):
        assert branch_weight(15_000, REFERENCE) == 0.5

    def test_plateau(self):
        assert branch_weight(25_000, REFERENCE) == 0.1

    def test_monotone_and_bounded(self):
        for kind in SCHEDULE_KINDS:
            cfg = ScheduleConfig(
                k1=100, k2=200, total_iterations=400, beta1=0.1, beta2=0.2, kind=kind
            )
            values = [branch_weight(k, cfg) for k in range(0, 401)]
            assert all(a >= b for a, b in zip(values, values[1:]))
            assert all(cfg.beta1 <= v <= 1.0 for v in values)

    def test_continuity_at_breakpoints(self):
        cfg = ScheduleConfig(k1=100, k2=200, total_iterations=400)
        assert branch_weight(100, cfg) == pytest.approx(branch_weight(101, cfg), abs=0.02)
        assert branch_weight(200, cfg) == pytest.approx(branch_weight(201, cfg), abs=0.02)

    def test_plateaus_do_not_depend_on_kind(self):
        for kind in SCHEDULE_KINDS:
            cfg = ScheduleConfig(
                k1=100, k2=200, total_iterations=400, beta1=0.15, kind=kind
            )
            assert branch_weight(50, cfg) == 1.0
            assert branch_weight(100, cfg) == 1.0
            assert branch_weight(300, cfg) == 0.15
            assert branch_weight(400, cfg) == 0.15


class TestHeadPredicateWeight:
    def test_tail_always_one(self):
        for k in (0, 10_000, 25_000, 40_000):
            assert head_predicate_weight(k, False, REFERENCE) == 1.0

    def test_head_midpoint(self):
        # 1 - 15000/30000 with the reference breakpoints
        assert head_predicate_weight(25_000, True, REFERENCE) == 0.5

    def test_head_endpoint_floor(self):
        assert head_predicate_weight(40_000, True, REFERENCE) == 0.2

    def test_full_weight_during_first_phase(self):
        assert head_predicate_weight(0, True, REFERENCE) == 1.0
        assert head_predicate_weight(10_000, True, REFERENCE) == 1.0

    def test_monotone_and_bounded(self):
        for kind in SCHEDULE_KINDS:
            cfg = ScheduleConfig(
                k1=100, k2=200, total_iterations=400, beta2=0.25, kind=kind
            )
            values = [head_predicate_weight(k, True, cfg) for k in range(0, 401)]
            assert all(a >= b for a, b in zip(values, values[1:]))
            assert all(cfg.beta2 <= v <= 1.0 for v in values)


class TestScheduleConfig:
    def test_breakpoint_validation(self):
        with pytest.raises(ValueError):
            ScheduleConfig(k1=200, k2=100, total_iterations=400)
        with pytest.raises(ValueError):
            ScheduleConfig(k1=0, k2=100, total_iterations=400)
        with pytest.raises(ValueError):
            ScheduleConfig(k1=100, k2=500, total_iterations=400)

    def test_floor_validation(self):
        with pytest.raises(ValueError):
            ScheduleConfig(k1=1, k2=2, total_iterations=4, beta1=1.5)

    def test_exponential_nu_validation(self):
        with pytest.raises(ValueError):
            ScheduleConfig(k1=1, k2=2, total_iterations=4, kind="exponential", nu=1.0)

    @pytest.mark.parametrize("kind", SCHEDULE_KINDS)
    @pytest.mark.parametrize("nu", [math.nan, 0.0, 1.0, -0.5])
    def test_nu_outside_the_open_unit_interval_is_rejected_for_every_kind(
        self, kind, nu
    ):
        with pytest.raises(ConfigurationError, match="nu"):
            ScheduleConfig(k1=1, k2=2, total_iterations=4, kind=kind, nu=nu)

    @pytest.mark.parametrize("field, value", [
        ("head_threshold", math.nan),
        ("head_threshold", -1),
        ("beta1", math.nan),
        ("beta2", math.nan),
        ("nu", math.nan),
        ("kind", "spline"),
    ])
    def test_bad_value_is_a_configuration_error(self, field, value):
        params = dict(k1=1, k2=2, total_iterations=4, kind="exponential")
        params[field] = value
        with pytest.raises(ConfigurationError):
            ScheduleConfig(**params)
