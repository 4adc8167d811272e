"""Unit tests for coordinator synchronization (Theorem 1 merging)."""

import math

import pytest

from repro.errors import PlanError
from repro.relational.aggregates import AggregateSpec, count_star
from repro.relational.expressions import b, r
from repro.relational.relation import Relation
from repro.core.expression_tree import GmdjExpression, ProjectionBase
from repro.core.gmdj import Gmdj
from repro.distributed.coordinator import Coordinator
from repro.distributed.plan import LocalStep
from repro.distributed.site import SkallaSite


def make_expression():
    gmdj = Gmdj.single([count_star("n"), AggregateSpec("avg", "v", "m")],
                       r.g == b.g)
    return GmdjExpression(ProjectionBase(("g",)), (gmdj,), ("g",))


@pytest.fixture()
def detail_schema():
    return Relation.from_dicts([{"g": 1, "v": 1.0}]).schema


@pytest.fixture()
def coordinator(detail_schema):
    return Coordinator(make_expression(), detail_schema)


def states(rows):
    return Relation.from_dicts(rows)


class TestBaseSync:
    def test_distinct_union(self, coordinator):
        first = Relation.from_dicts([{"g": 1}, {"g": 2}])
        second = Relation.from_dicts([{"g": 2}, {"g": 3}])
        merged, seconds = coordinator.synchronize_base([first, second])
        assert sorted(merged.column("g").tolist()) == [1, 2, 3]
        assert seconds >= 0.0

    def test_empty_fragments_rejected(self, coordinator):
        with pytest.raises(PlanError):
            coordinator.synchronize_base([])

    def test_final_result_before_execution(self, coordinator):
        with pytest.raises(PlanError, match="no result"):
            coordinator.final_result()


class TestStepSync:
    def test_super_aggregation(self, coordinator):
        coordinator.synchronize_base([Relation.from_dicts(
            [{"g": 1}, {"g": 2}])])
        step = LocalStep((make_expression().rounds[0],))
        h1 = states([{"g": 1, "n__count": 2, "m__sum": 10.0, "m__count": 2}])
        h2 = states([{"g": 1, "n__count": 1, "m__sum": 20.0, "m__count": 1},
                     {"g": 2, "n__count": 4, "m__sum": 4.0, "m__count": 4}])
        merged, __ = coordinator.synchronize_step(step, [h1, h2])
        rows = {row["g"]: row for row in merged.to_dicts()}
        assert rows[1]["n"] == 3
        assert rows[1]["m"] == pytest.approx(10.0)  # (10+20)/(2+1)
        assert rows[2]["m"] == pytest.approx(1.0)

    def test_group_with_no_contributions(self, coordinator):
        coordinator.synchronize_base([Relation.from_dicts(
            [{"g": 1}, {"g": 5}])])
        step = LocalStep((make_expression().rounds[0],))
        h1 = states([{"g": 1, "n__count": 2, "m__sum": 6.0, "m__count": 2}])
        merged, __ = coordinator.synchronize_step(step, [h1])
        rows = {row["g"]: row for row in merged.to_dicts()}
        assert rows[5]["n"] == 0
        assert math.isnan(rows[5]["m"])

    def test_include_base_reconstructs_base(self, detail_schema):
        coordinator = Coordinator(make_expression(), detail_schema)
        step = LocalStep((make_expression().rounds[0],), include_base=True)
        h1 = states([{"g": 1, "n__count": 2, "m__sum": 6.0, "m__count": 2}])
        h2 = states([{"g": 2, "n__count": 1, "m__sum": 9.0, "m__count": 1},
                     {"g": 1, "n__count": 1, "m__sum": 0.0, "m__count": 1}])
        merged, __ = coordinator.synchronize_step(step, [h1, h2])
        rows = {row["g"]: row for row in merged.to_dicts()}
        assert set(rows) == {1, 2}
        assert rows[1]["n"] == 3
        assert rows[1]["m"] == pytest.approx(2.0)

    def test_step_before_base_rejected(self, coordinator):
        step = LocalStep((make_expression().rounds[0],))
        with pytest.raises(PlanError, match="base round"):
            coordinator.synchronize_step(step, [])

    @pytest.mark.parametrize("include_base", [True, False],
                             ids=["include_base", "set_base"])
    def test_empty_sub_results_include_base(self, detail_schema,
                                            include_base):
        """No sub-results: an include_base step has no base tuples, a
        step over a set base keeps every base tuple with empty states."""
        coordinator = Coordinator(make_expression(), detail_schema)
        base = Relation.from_dicts([{"g": 1}, {"g": 2}, {"g": 7}])
        if not include_base:
            coordinator.set_base(base)
        step = LocalStep((make_expression().rounds[0],),
                         include_base=include_base)
        merged, __ = coordinator.synchronize_step(step, [])
        assert merged.schema.names == ("g", "n", "m")
        if include_base:
            assert merged.num_rows == 0
        else:
            assert merged.column("g").tolist() == [1, 2, 7]
            assert merged.column("n").tolist() == [0, 0, 0]
            assert all(math.isnan(value) for value in merged.column("m"))


class TestSiteCoordinatorRoundTrip:
    def test_matches_centralized(self):
        detail = Relation.from_dicts([
            {"g": i % 4, "v": float(i)} for i in range(40)])
        expression = make_expression()
        reference = expression.evaluate_centralized(detail)

        fragments = [detail.filter(detail.column("g") % 2 == parity)
                     for parity in (0, 1)]
        sites = [SkallaSite(i, fragment)
                 for i, fragment in enumerate(fragments)]
        coordinator = Coordinator(expression, detail.schema)
        bases = []
        for site in sites:
            base, __ = site.evaluate_base(expression.base)
            bases.append(base)
        merged_base, __ = coordinator.synchronize_base(bases)
        step = LocalStep((expression.rounds[0],))
        subs = [site.execute_step(step, merged_base, ["g"], None, False)[0]
                for site in sites]
        result, __ = coordinator.synchronize_step(step, subs)
        assert result.multiset_equals(reference)
