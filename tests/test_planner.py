"""Plan construction and branch layout, profiling math, and persistence."""

import importlib
import json
import re
from pathlib import Path

import pytest

from vidquery import planner
from vidquery.dsl.ast import And, Compare, Not, Or, PropRef
from vidquery.planner import (
    PlanDag,
    PlanError,
    PlanLoadError,
    PlanOp,
    PlannerConfig,
    ProfileReport,
    decode_expr,
    encode_expr,
    enumerate_alternatives,
    explain_dot,
    f1_score,
    load_plan,
    plan_query,
    save_plan,
    select_plan,
)
from vidquery.registry import ErrorProfile, Registration

from conftest import (
    CAR_PROGRAM,
    SUV_PROGRAM,
    frozen_registry,
    make_program,
    meta_1000,
    op_signatures,
    specialized_red_car,
    unfused,
)


def reds_program(extra=""):
    return make_program(CAR_PROGRAM + """
    query reds {
      bind c: Car
      frame_constraint: c.color == "red"
    }
    """ + extra)


class TestExprCodec:
    def test_round_trip_nested(self):
        expr = Or((
            And((
                Compare(PropRef("c", "color"), "==", "red"),
                Not(Compare(PropRef("c", "speed"), ">", 3.0)),
            )),
            Compare(
                PropRef(None, "distance_px", relation="Near", args=("c", "p")),
                "<", 100.0,
            ),
        ))
        assert decode_expr(encode_expr(expr)) == expr

    def test_in_literal_tuple(self):
        expr = Compare(PropRef("c", "color"), "in", ("red", "blue"))
        encoded = json.loads(json.dumps(encode_expr(expr)))  # via JSON
        assert decode_expr(encoded) == expr

    def test_none_passthrough(self):
        assert encode_expr(None) is None
        assert decode_expr(None) is None


class TestBaseDag:
    def test_branch_shape_and_order(self):
        vprog = reds_program("""
        query fast_reds extends reds {
          frame_constraint: c.direction == "right"
        }
        """)
        dag = unfused(plan_query(vprog, "fast_reds", frozen_registry()))
        order = dag.topo_order()
        assert order == [
            "reader", "detector:c", "tracker:c", "proj:c.color",
            "proj:c.center", "proj:c.direction", "filter:c",
            "output:fast_reds",
        ]
        assert dag.sink == "output:fast_reds"

    def test_no_tracker_without_state_video_or_intrinsic(self):
        vprog = make_program("""
        vobj Car {
          detector: "general_car"
          property kindof: stateless(impl="attr:kind")
        }
        query suvs {
          bind c: Car
          frame_constraint: c.kindof == "suv"
        }
        """)
        dag = unfused(plan_query(vprog, "suvs", frozen_registry()))
        assert not any(o.kind == "tracker" for o in dag.ops.values())

    def test_scene_conjuncts_become_frame_filters(self):
        vprog = reds_program("""
        query busy_reds {
          bind s: Scene
          bind c: Car
          frame_constraint: s.motion_score > 0.5 & c.color == "red"
        }
        """)
        dag = unfused(plan_query(vprog, "busy_reds", frozen_registry()))
        ff = dag.ops["scene_filter:0"]
        assert ff.kind == "frame_filter"
        assert ff.params["channel"] == "motion_score"
        assert ff.params["op"] == ">"
        assert dag.ops["detector:c"].inputs == [ff.op_id]

    def test_two_binding_join_and_relation_stage(self):
        vprog = make_program(CAR_PROGRAM + """
        vobj Person {
          detector: "general_person"
          property role: stateless(impl="attr:role") intrinsic
        }
        relation Near(Car, Person) {
          property distance_px: stateless(impl="distance_px")
        }
        query reds { bind c: Car
          frame_constraint: c.color == "red" }
        query adults { bind p: Person
          frame_constraint: p.role == "adult" }
        spatial query close {
          first: reds
          second: adults
          relation: Near
          predicate: Near(c, p).distance_px < 100
        }
        """)
        dag = unfused(plan_query(vprog, "close", frozen_registry()))
        join = dag.ops["join"]
        # input i of the join is part i: the binding order of the output
        assert join.inputs == ["filter:c", "filter:p"]
        assert join.params == {}
        assert dag.ops["relproj:Near"].inputs == ["join"]
        assert dag.ops["relproj:Near"].params == {
            "relation": "Near", "props": {"distance_px": "distance_px"},
            "bound": {"prop": "distance_px", "op": "<", "limit": 100.0}}
        assert dag.ops["relfilter:Near"].params["args"] == ["c", "p"]
        assert dag.ops["output:close"].params["bindings"] == ["c", "p"]
        assert dag.sink == "output:close"

    def test_aggregate_added_for_video_side(self):
        vprog = reds_program("""
        query red_count {
          bind c: Car
          frame_constraint: c.color == "red"
          video_output: count_distinct(c)
        }
        """)
        dag = unfused(plan_query(vprog, "red_count", frozen_registry()))
        assert dag.sink == "aggregate:red_count"
        assert dag.ops[dag.sink].params["kind"] == "count_distinct"
        assert dag.ops[dag.sink].params["part"] == 0

    def test_duration_wraps_base_and_forces_tracker(self):
        vprog = make_program("""
        vobj Car {
          detector: "general_car"
          property kindof: stateless(impl="attr:kind")
        }
        query suvs { bind c: Car
          frame_constraint: c.kindof == "suv" }
        duration query held { base: suvs min_frames: 5 gap_tolerance: 1 }
        """)
        dag = unfused(plan_query(vprog, "held", frozen_registry()))
        assert dag.sink == "duration:held"
        assert dag.ops[dag.sink].params == {
            "query": "held", "min_frames": 5, "gap_tolerance": 1,
        }
        assert dag.ops[dag.sink].inputs == ["suvs/output:suvs"]
        assert "suvs/tracker:c" in dag.ops  # forced despite stateless base

    def test_duration_seconds_need_meta(self):
        vprog = reds_program("""
        duration query held { base: reds min_seconds: 1.5 }
        """)
        with pytest.raises(PlanError):
            plan_query(vprog, "held", frozen_registry())
        dag = plan_query(vprog, "held", frozen_registry(),
                         meta=meta_1000(100, fps=10))
        assert dag.ops["duration:held"].params["min_frames"] == 15

    def test_temporal_merges_prefixed_subplans(self):
        vprog = reds_program("""
        query blues {
          bind c: Car
          frame_constraint: c.color == "blue"
        }
        temporal query seq {
          first: reds
          then: blues
          max_interval_frames: 30
        }
        """)
        dag = unfused(plan_query(vprog, "seq", frozen_registry()))
        top = dag.ops["temporal:seq"]
        assert top.inputs == ["reds/output:reds", "blues/output:blues"]
        assert top.params["max_interval"] == 30
        assert "reds/detector:c" in dag.ops and "blues/detector:c" in dag.ops

    def test_nested_subplans_keep_their_own_ops(self):
        # `held` plans `suvs` with a tracker, `t`'s first part without one
        vprog = make_program(SUV_PROGRAM)
        dag = unfused(plan_query(vprog, "t", frozen_registry()))
        top = dag.ops["temporal:t"]
        assert top.params["query"] == "t"
        assert top.inputs == ["suvs/output:suvs", "held/duration:held"]
        assert dag.ops["held/duration:held"].inputs == [
            "held/suvs/output:suvs"]
        assert dag.ops["held/suvs/proj:c.kindof"].inputs == [
            "held/suvs/tracker:c"]
        assert dag.ops["suvs/proj:c.kindof"].inputs == ["suvs/detector:c"]

    def test_missing_detector(self):
        vprog = make_program("""
        vobj Car {
          detector: "cnn_v9"
          property kindof: stateless(impl="attr:kind")
        }
        query q { bind c: Car
          frame_constraint: c.kindof == "x" }
        """)
        with pytest.raises(PlanError) as exc:
            plan_query(vprog, "q", frozen_registry())
        assert "cnn_v9" in str(exc.value)

    def test_plan_id_stable_and_content_sensitive(self):
        vprog = reds_program()
        d1 = plan_query(vprog, "reds", frozen_registry(), PlannerConfig())
        d2 = plan_query(vprog, "reds", frozen_registry(), PlannerConfig())
        assert d1.plan_id == d2.plan_id
        other = plan_query(vprog, "reds",
                           frozen_registry([specialized_red_car()]),
                           PlannerConfig(), detector_overrides={"c": "red_car"})
        assert other.plan_id != d1.plan_id


class TestPullUp:
    def test_zero_error_classifier_gates_detector(self):
        gate = Registration(
            name="has_car", kind="classifier", cost_units=1.0,
            params={"vobj": "Car", "target_class": "car"},
        )
        flaky = Registration(
            name="flaky_gate", kind="classifier", cost_units=1.0,
            params={"vobj": "Car", "target_class": "car"},
            error_profile=ErrorProfile(miss_rate=0.1, seed=3),
        )
        vprog = reds_program()
        registry = frozen_registry([gate, flaky])
        dag = plan_query(vprog, "reds", registry, PlannerConfig())
        gate_id = "classifier:detector:c:has_car"
        assert dag.ops[gate_id].inputs == ["reader"]
        assert dag.ops["detector:c"].inputs == [gate_id]
        # errorful gate stays out: inserting it would change results
        assert not any("flaky_gate" in i for i in dag.ops)

    def test_each_branch_gated_from_the_same_head(self):
        gate = Registration(
            name="has_car", kind="classifier", cost_units=1.0,
            params={"vobj": "Car", "target_class": "car"},
        )
        motion = Registration(
            name="moving", kind="frame_filter", cost_units=0.5,
            params={"auto": True, "channel": "motion_score", "op": ">=",
                    "threshold": 0.2},
        )
        vprog = make_program(CAR_PROGRAM + """
        query pair {
          bind s: Scene
          bind a: Car
          bind b: Car
          frame_constraint: s.motion_score > 0.1 & a.color == "red"
                            & b.color == "blue"
        }
        """)
        dag = plan_query(vprog, "pair", frozen_registry([gate, motion]),
                         PlannerConfig())
        for b in ("a", "b"):
            cls, ff = f"classifier:detector:{b}:has_car", f"gate:detector:{b}:moving"
            assert dag.ops[cls].inputs == ["scene_filter:0"]
            assert dag.ops[ff].inputs == [cls]
            assert dag.ops[ff].params["cost_units"] == 0.5
            assert dag.ops[f"detector:{b}"].inputs == [ff]
        assert dag.ops["join"].inputs == [
            "fused:proj:a.color", "fused:proj:b.color",
        ]

    def test_filter_moves_above_unneeded_projectors(self):
        vprog = make_program(CAR_PROGRAM + """
        query reds {
          bind c: Car
          frame_constraint: c.color == "red"
          frame_output: c.direction
        }
        """)
        dag = unfused(plan_query(vprog, "reds", frozen_registry(),
                                 PlannerConfig()))
        order = dag.topo_order()
        assert order.index("filter:c") == order.index("proj:c.color") + 1
        assert order.index("filter:c") < order.index("proj:c.center")

    def test_filter_stays_below_its_dependencies(self):
        vprog = reds_program("""
        query movers extends reds {
          frame_constraint: c.direction == "right"
        }
        """)
        dag = unfused(plan_query(vprog, "movers", frozen_registry(),
                                 PlannerConfig()))
        order = dag.topo_order()
        assert order.index("filter:c") > order.index("proj:c.direction")


class TestFusion:
    def test_chain_fused_and_relinked(self):
        vprog = reds_program()
        dag = plan_query(vprog, "reds", frozen_registry())
        fused = [o for o in dag.ops.values() if o.kind == "fused"]
        assert len(fused) == 1
        steps = fused[0].params["steps"]
        # a step holds only what runs: its id and input are the chain's
        assert [set(s) for s in steps] == [{"kind", "params"}] * 2
        assert [(s["kind"], s["params"].get("prop")) for s in steps] == [
            ("projector", "color"), ("vobj_filter", None),
        ]
        assert fused[0].inputs == ["tracker:c"]
        assert dag.ops["output:reds"].inputs == [fused[0].op_id]
        assert not [o for o in dag.ops.values()
                    if o.kind in ("projector", "vobj_filter")]

    def test_single_op_chain_untouched(self):
        # red_car guarantees the colour, so the branch keeps one projector
        vprog = reds_program("""
        query red_centers extends reds {
          frame_output: c.center
        }
        """)
        dag = plan_query(vprog, "red_centers",
                         frozen_registry([specialized_red_car()]),
                         PlannerConfig(), detector_overrides={"c": "red_car"})
        assert dag.topo_order() == [
            "reader", "detector:c", "proj:c.center", "output:red_centers",
        ]

    def test_filter_placed_inside_the_fused_chain(self):
        vprog = make_program(CAR_PROGRAM + """
        query reds {
          bind c: Car
          frame_constraint: c.color == "red"
          frame_output: c.direction
        }
        """)
        dag = plan_query(vprog, "reds", frozen_registry(), PlannerConfig())
        fused = dag.ops["fused:proj:c.color"]
        steps = fused.params["steps"]
        assert [(s["kind"], s["params"].get("prop")) for s in steps] == [
            ("projector", "color"), ("vobj_filter", None),
            ("projector", "center"), ("projector", "direction"),
        ]
        assert fused.inputs == ["tracker:c"]
        assert dag.ops["output:reds"].inputs == ["fused:proj:c.color"]


class TestAlternatives:
    def test_reference_first_then_specializations(self):
        vprog = reds_program()
        registry = frozen_registry([specialized_red_car()])
        dags = enumerate_alternatives(vprog, "reds", registry, PlannerConfig())
        assert len(dags) == 2
        dets = [
            [o.params["detector"] for o in d.ops.values()
             if o.kind == "detector"]
            for d in dags
        ]
        assert dets == [["general_car"], ["red_car"]]

    def test_subsumed_conjunct_dropped_for_specialized(self):
        vprog = reds_program()
        registry = frozen_registry([specialized_red_car()])
        _ref, spec = enumerate_alternatives(
            vprog, "reds", registry, PlannerConfig()
        )
        # red_car guarantees color == "red": no filter (or projector) remains
        assert not any(o.kind == "vobj_filter"
                       for o in unfused(spec).ops.values())

    def test_cap_respected(self, monkeypatch):
        monkeypatch.setattr(planner, "MAX_ALTERNATIVES", 2)
        vprog = reds_program()
        extras = [specialized_red_car()]
        extras.append(Registration(
            name="red_car2", kind="detector", cost_units=20.0,
            params={"classes": ["car"], "specializes": "Car"},
        ))
        registry = frozen_registry(extras)
        dags = enumerate_alternatives(
            vprog, "reds", registry, PlannerConfig()
        )
        assert len(dags) == 2

    def test_each_part_of_a_temporal_query_chooses_its_own_detector(self):
        vprog = make_program(CAR_PROGRAM + """
        query reds { bind c: Car frame_constraint: c.color == "red" }
        query fast { bind c: Car frame_constraint: c.speed > 3.0 }
        temporal query red_then_fast {
          first: reds then: fast max_interval_frames: 30
        }
        """)
        registry = frozen_registry([specialized_red_car()])
        dags = enumerate_alternatives(vprog, "red_then_fast", registry,
                                      PlannerConfig())
        dets = [
            {o.op_id: o.params["detector"] for o in d.ops.values()
             if o.kind == "detector"}
            for d in dags
        ]
        assert dets == [
            {"reds/detector:c": first, "fast/detector:c": then}
            for first in ("general_car", "red_car")
            for then in ("general_car", "red_car")
        ]
        # a top-level binding keeps its bare key, so its plans do not change
        assert enumerate_alternatives(vprog, "reds", registry,
                                      PlannerConfig())[1].plan_id == \
            plan_query(vprog, "reds", registry, PlannerConfig(),
                       detector_overrides={"c": "red_car"}).plan_id


class TestF1AndSelection:
    def test_f1_values(self):
        assert f1_score([True, False], [True, False]) == 1.0
        assert f1_score([False, False], [False, False]) == 1.0
        assert f1_score([True, True], [False, False]) == 0.0
        # tp=1 fp=1 fn=1 -> 2/4
        assert f1_score([True, True, False], [True, False, True]) == 0.5
        with pytest.raises(ValueError):
            f1_score([True], [])

    def report(self, dag, f1, cost, ops=5):
        return ProfileReport(plan_id=dag.plan_id, f1=f1, cost_units=cost,
                             op_count=ops)

    def dags(self, n):
        out = []
        for i in range(n):
            dag = PlanDag(query="q")
            dag.add(PlanOp(op_id="reader", kind="reader",
                           params={"variant": i}))
            dag.sink = "reader"
            out.append(dag)
        return out

    def test_cheapest_eligible_wins(self):
        d = self.dags(3)
        reports = [self.report(d[0], 1.0, 100.0),
                   self.report(d[1], 0.95, 20.0),
                   self.report(d[2], 0.80, 5.0)]
        chosen, fallback = select_plan(d, reports,
                                       PlannerConfig(accuracy_target=0.9))
        assert chosen is d[1] and not fallback

    def test_tie_breaks_on_op_count_then_plan_id(self):
        d = self.dags(3)
        reports = [self.report(d[0], 1.0, 10.0, ops=6),
                   self.report(d[1], 1.0, 10.0, ops=4),
                   self.report(d[2], 1.0, 10.0, ops=4)]
        chosen, _fb = select_plan(d, reports, PlannerConfig())
        expected = min(
            (d[1], d[2]), key=lambda dag: dag.plan_id
        )
        assert chosen is expected

    def test_fallback_to_reference(self):
        d = self.dags(2)
        reports = [self.report(d[0], 0.5, 100.0),
                   self.report(d[1], 0.6, 10.0)]
        chosen, fallback = select_plan(d, reports,
                                       PlannerConfig(accuracy_target=0.99))
        assert chosen is d[0] and fallback

    def test_target_boundary_inclusive(self):
        d = self.dags(1)
        reports = [self.report(d[0], 0.9, 1.0)]
        _chosen, fallback = select_plan(
            d, reports, PlannerConfig(accuracy_target=0.9)
        )
        assert not fallback


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        vprog = reds_program()
        dag = plan_query(vprog, "reds", frozen_registry(), PlannerConfig())
        path = tmp_path / "plan.json"
        save_plan(dag, path)
        loaded = load_plan(path, frozen_registry())
        assert loaded.plan_id == dag.plan_id
        assert loaded.canonical() == dag.canonical()

    def test_version_mismatch(self, tmp_path):
        vprog = reds_program()
        dag = plan_query(vprog, "reds", frozen_registry(), PlannerConfig())
        obj = dag.to_json()
        path = tmp_path / "plan.json"
        # version 2 plans found objects by class name, not per binding;
        # version 3 duration and temporal ops did not name their query;
        # version 4 fused steps held ids and inputs, tracker configs min_hits;
        # version 6 relation projectors had no distance bound
        for version in (2, 3, 4, 6, 99):
            obj["version"] = version
            path.write_text(json.dumps(obj))
            with pytest.raises(PlanLoadError):
                load_plan(path)

    def test_unlinkable_detector(self, tmp_path):
        vprog = reds_program()
        registry = frozen_registry([specialized_red_car()])
        dag = plan_query(vprog, "reds", registry, PlannerConfig(),
                         detector_overrides={"c": "red_car"})
        path = tmp_path / "plan.json"
        save_plan(dag, path)
        with pytest.raises(PlanLoadError):
            load_plan(path, frozen_registry())  # registry without red_car

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text("{nope")
        with pytest.raises(PlanLoadError):
            load_plan(path)


def test_explain_dot_lists_nodes_and_edges():
    vprog = reds_program()
    dag = plan_query(vprog, "reds", frozen_registry(), PlannerConfig())
    dot = explain_dot(dag, costs={"detector:c": 100.0})
    assert dot.startswith("digraph plan {")
    assert '"reader" -> "detector:c";' in dot
    assert "cost=100" in dot


def test_readme_program_example_validates_and_plans():
    """The program example in README.md keeps to the validator's rules, and
    each of its queries plans."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = re.search(r"^### Program example\n+```text\n(.*?)^```",
                        readme, re.M | re.S)[1]
    vprog = make_program(example, file="README.md")
    assert vprog.query_order
    registry = frozen_registry()
    for name in vprog.query_order:
        plan_query(vprog, name, registry, PlannerConfig())


def test_every_op_of_every_plan_reaches_the_sink():
    """Over every program constant of the test modules, every query and
    alternative: no op is left that the sink does not read."""
    programs = []
    for path in sorted(Path(__file__).parent.glob("*.py")):
        module = importlib.import_module(path.stem)
        programs += [(f"{path.stem}.{name}", value)
                     for name, value in sorted(vars(module).items())
                     if name.isupper() and isinstance(value, str)
                     and "query " in value]
    assert len(programs) >= 8
    registry = frozen_registry([
        Registration(name="has_car", kind="classifier", cost_units=1.0,
                     params={"vobj": "Car", "target_class": "car"}),
        Registration(name="moving", kind="frame_filter", cost_units=0.5,
                     params={"auto": True, "channel": "motion_score",
                             "op": ">=", "threshold": 0.2}),
        specialized_red_car(),
    ])
    for name, source in programs:
        vprog = make_program(source)
        for query in vprog.query_order:
            for dag in enumerate_alternatives(vprog, query, registry,
                                              meta=meta_1000(100)):
                reached, stack = {dag.sink}, [dag.sink]
                while stack:
                    for dep in dag.ops[stack.pop()].inputs:
                        if dep not in reached:
                            reached.add(dep)
                            stack.append(dep)
                assert reached == set(dag.ops), (
                    name, query, sorted(set(dag.ops) - reached))


class _Reads(dict):
    """A plan op's params that note each key read by `[]` or `get`."""

    def __init__(self, params, seen, where):
        super().__init__(params)
        self.seen, self.where = seen, where

    def __getitem__(self, key):
        self.seen.add((self.where, key))
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.seen.add((self.where, key))
        return super().get(key, default)


EVERY_SHAPE = CAR_PROGRAM + """
vobj Person {
  detector: "general_person"
  property role: stateless(impl="attr:role") intrinsic
}
relation Near(Car, Person) {
  property distance_px: stateless(impl="distance_px")
}
query gated {
  bind c: Car
  bind s: Scene
  frame_constraint: c.color == "red" & s.motion_score >= 0.1
  frame_output: c.speed
}
query reds { bind c: Car
  frame_constraint: c.color == "red" }
query right_movers {
  bind c: Car
  frame_constraint: c.color == "red"
  video_constraint: c.direction == "right"
  video_output: count_distinct(c)
}
query adults { bind p: Person
  frame_constraint: p.role == "adult" }
spatial query near {
  first: reds
  second: adults
  relation: Near
  predicate: Near(c, p).distance_px < 150 & c.direction == "left"
}
spatial query together { first: reds second: adults relation: Near }
duration query held { base: right_movers min_frames: 5 gap_tolerance: 1 }
duration query lingering { base: near min_seconds: 0.5 }
temporal query seq { first: held then: together max_interval_frames: 10 }
temporal query later { first: reds then: adults max_interval_seconds: 2 }
"""


def test_every_param_of_a_plan_is_read_when_the_pass_links():
    """No plan holds a param that linking its pass does not read: over
    every query shape and every alternative, fused steps included."""
    from vidquery.executor import Session

    vprog = make_program(EVERY_SHAPE)
    meta = meta_1000(100)
    registry = frozen_registry([
        Registration(name="has_car", kind="classifier", cost_units=1.0,
                     params={"vobj": "Car", "target_class": "car"}),
        Registration(name="moving", kind="frame_filter", cost_units=0.5,
                     params={"auto": True, "channel": "motion_score",
                             "op": ">=", "threshold": 0.2}),
        specialized_red_car(),
    ])
    kinds = set()
    for query in vprog.query_order:
        for dag in enumerate_alternatives(vprog, query, registry, meta=meta):
            # an op of a signature already scheduled is not built: the first
            # op of its signature, whose params are the same, is read for it
            seen, held, first = set(), set(), {}
            for op_id, sig in op_signatures(dag).items():
                op, where = dag.ops[op_id], first.setdefault(sig, op_id)
                steps = op.params.get("steps", ())
                op.params = _Reads(op.params, seen, where)
                held |= {(where, key) for key in op.params}
                for i, step in enumerate(steps):
                    step_where = f"{where} step {i}"
                    step["params"] = _Reads(step["params"], seen, step_where)
                    held |= {(step_where, key) for key in step["params"]}
                    kinds.add(step["kind"])
                kinds.add(op.kind)
            Session(vprog, registry, meta).start([dag])
            assert held <= seen, (query, sorted(held - seen))
    assert kinds == {"reader", "classifier", "frame_filter", "detector",
                     "tracker", "projector", "vobj_filter", "fused", "join",
                     "relation_projector", "relation_filter", "output",
                     "aggregate", "duration", "temporal"}
