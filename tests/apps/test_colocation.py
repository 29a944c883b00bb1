"""Contention-aware co-location."""

import pytest

from repro.apps.colocation import (
    ColocationPlan,
    plan_colocation,
    validate_plan,
)
from repro.errors import ExperimentError


class TestPlanning:
    def test_pairs_high_with_low(self):
        plan = plan_colocation({
            "tomcat": 22.0, "python": 0.6, "nginx": 14.0, "mysql": 4.5,
        })
        assert plan.pairs[0] == ("tomcat", "python")
        assert plan.pairs[1] == ("nginx", "mysql")
        assert plan.unpaired == []

    def test_odd_count_leaves_one_unpaired(self):
        plan = plan_colocation({"a": 1.0, "b": 2.0, "c": 3.0})
        assert len(plan.pairs) == 1
        assert plan.unpaired == ["b"]

    def test_empty_rejected(self):
        with pytest.raises(ExperimentError):
            plan_colocation({})

    def test_describe_mentions_cores(self):
        plan = plan_colocation({"a": 1.0, "b": 20.0})
        assert "core 0" in plan.describe()

    def test_validate_flags_memory_memory_pairs(self):
        bad = ColocationPlan(
            pairs=[("tomcat", "nginx")], unpaired=[],
            mpki={"tomcat": 22.0, "nginx": 14.0},
        )
        assert validate_plan(bad) == ["tomcat+nginx"]

    def test_complementary_plan_has_no_violations(self):
        plan = plan_colocation({
            "tomcat": 22.0, "python": 0.6, "nginx": 14.0, "mysql": 4.5,
        })
        assert validate_plan(plan) == []
