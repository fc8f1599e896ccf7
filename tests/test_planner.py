"""Plan construction, optimization passes, profiling math, and persistence."""

import json

import pytest

from vidquery.dsl.ast import And, Compare, Not, Or, PropRef
from vidquery.planner import (
    PlanDag,
    PlanError,
    PlanLoadError,
    PlanOp,
    PlannerConfig,
    ProfileReport,
    build_base_dag,
    decode_expr,
    encode_expr,
    enumerate_alternatives,
    explain_dot,
    f1_score,
    fuse_operators,
    load_plan,
    plan_query,
    pull_up_predicates,
    save_plan,
    select_plan,
)
from vidquery.registry import ErrorProfile, Registration

from conftest import (
    CAR_PROGRAM,
    frozen_registry,
    make_program,
    meta_1000,
    specialized_red_car,
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
        dag = build_base_dag(vprog, "fast_reds", frozen_registry(),
                             PlannerConfig())
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
        dag = build_base_dag(vprog, "suvs", frozen_registry(), PlannerConfig())
        assert not any(o.kind == "tracker" for o in dag.ops.values())

    def test_scene_conjuncts_become_frame_filters(self):
        vprog = reds_program("""
        query busy_reds {
          bind s: Scene
          bind c: Car
          frame_constraint: s.motion_score > 0.5 & c.color == "red"
        }
        """)
        dag = build_base_dag(vprog, "busy_reds", frozen_registry(),
                             PlannerConfig())
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
        dag = build_base_dag(vprog, "close", frozen_registry(), PlannerConfig())
        join = dag.ops["join"]
        # input i of the join is part i: the binding order of the output
        assert join.inputs == ["filter:c", "filter:p"]
        assert join.params == {}
        assert dag.ops["relproj:Near"].inputs == ["join"]
        assert dag.ops["relproj:Near"].params == \
            {"relation": "Near", "props": {"distance_px": "distance_px"}}
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
        dag = build_base_dag(vprog, "red_count", frozen_registry(),
                             PlannerConfig())
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
        dag = build_base_dag(vprog, "held", frozen_registry(), PlannerConfig())
        assert dag.sink == "duration:held"
        assert dag.ops[dag.sink].params == {"min_frames": 5, "gap_tolerance": 1}
        assert dag.ops[dag.sink].inputs == ["suvs/output:suvs"]
        assert "suvs/tracker:c" in dag.ops  # forced despite stateless base

    def test_duration_seconds_need_meta(self):
        vprog = reds_program("""
        duration query held { base: reds min_seconds: 1.5 }
        """)
        with pytest.raises(PlanError):
            build_base_dag(vprog, "held", frozen_registry(), PlannerConfig())
        dag = build_base_dag(vprog, "held", frozen_registry(), PlannerConfig(),
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
        dag = build_base_dag(vprog, "seq", frozen_registry(), PlannerConfig())
        top = dag.ops["temporal:seq"]
        assert top.inputs == ["reds/output:reds", "blues/output:blues"]
        assert top.params["max_interval"] == 30
        assert "reds/detector:c" in dag.ops and "blues/detector:c" in dag.ops

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
            build_base_dag(vprog, "q", frozen_registry(), PlannerConfig())
        assert "cnn_v9" in str(exc.value)

    def test_plan_id_stable_and_content_sensitive(self):
        vprog = reds_program()
        cfg = PlannerConfig()
        d1 = build_base_dag(vprog, "reds", frozen_registry(), cfg)
        d2 = build_base_dag(vprog, "reds", frozen_registry(), cfg)
        assert d1.plan_id == d2.plan_id
        fused = fuse_operators(
            build_base_dag(vprog, "reds", frozen_registry(), cfg)
        )
        assert fused.plan_id != d1.plan_id


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
        dag = pull_up_predicates(
            build_base_dag(vprog, "reds", registry, PlannerConfig()),
            vprog, registry,
        )
        gate_id = "classifier:detector:c:has_car"
        assert dag.ops[gate_id].inputs == ["reader"]
        assert dag.ops["detector:c"].inputs == [gate_id]
        # errorful gate stays out: inserting it would change results
        assert not any("flaky_gate" in i for i in dag.ops)

    def test_filter_moves_above_unneeded_projectors(self):
        vprog = make_program(CAR_PROGRAM + """
        query reds {
          bind c: Car
          frame_constraint: c.color == "red"
          frame_output: c.direction
        }
        """)
        registry = frozen_registry()
        dag = pull_up_predicates(
            build_base_dag(vprog, "reds", registry, PlannerConfig()),
            vprog, registry,
        )
        order = dag.topo_order()
        assert order.index("filter:c") == order.index("proj:c.color") + 1
        assert order.index("filter:c") < order.index("proj:c.center")

    def test_filter_stays_below_its_dependencies(self):
        vprog = reds_program("""
        query movers extends reds {
          frame_constraint: c.direction == "right"
        }
        """)
        registry = frozen_registry()
        dag = pull_up_predicates(
            build_base_dag(vprog, "movers", registry, PlannerConfig()),
            vprog, registry,
        )
        order = dag.topo_order()
        assert order.index("filter:c") > order.index("proj:c.direction")


class TestFusion:
    def test_chain_fused_and_relinked(self):
        vprog = reds_program()
        dag = fuse_operators(
            build_base_dag(vprog, "reds", frozen_registry(), PlannerConfig())
        )
        fused = [o for o in dag.ops.values() if o.kind == "fused"]
        assert len(fused) == 1
        steps = [s["op_id"] for s in fused[0].params["steps"]]
        assert steps == ["proj:c.color", "filter:c"]
        assert fused[0].inputs == ["tracker:c"]
        assert dag.ops["output:reds"].inputs == [fused[0].op_id]
        assert all(s not in dag.ops for s in steps)

    def test_single_op_chain_untouched(self):
        vprog = make_program("""
        vobj Car {
          detector: "general_car"
          property kindof: stateless(impl="attr:kind")
        }
        query q { bind c: Car
          frame_constraint: c.kindof == "x" }
        """)
        dag = fuse_operators(
            build_base_dag(vprog, "q", frozen_registry(), PlannerConfig())
        )
        # projector feeds the filter: exactly one fusable chain of length 2
        kinds = {o.kind for o in dag.ops.values()}
        assert "fused" in kinds or (
            "projector" in kinds and "vobj_filter" in kinds
        )

    def test_branch_points_block_fusion(self):
        dag = PlanDag(query="q")
        dag.add(PlanOp(op_id="reader", kind="reader"))
        dag.add(PlanOp(op_id="p1", kind="projector",
                       params={"prop": "a"}, inputs=["reader"]))
        dag.add(PlanOp(op_id="p2", kind="projector",
                       params={"prop": "b"}, inputs=["p1"]))
        dag.add(PlanOp(op_id="tap", kind="output", params={}, inputs=["p1"]))
        dag.sink = "tap"
        fused = fuse_operators(dag)
        assert "p1" in fused.ops and "p2" in fused.ops  # p1 has two consumers


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
            vprog, "reds", registry, PlannerConfig(enable_fusion=False)
        )
        # red_car guarantees color == "red": no filter (or projector) remains
        assert not any(o.kind == "vobj_filter" for o in spec.ops.values())

    def test_cap_respected(self):
        vprog = reds_program()
        extras = [specialized_red_car()]
        extras.append(Registration(
            name="red_car2", kind="detector", cost_units=20.0,
            params={"classes": ["car"], "specializes": "Car"},
        ))
        registry = frozen_registry(extras)
        dags = enumerate_alternatives(
            vprog, "reds", registry, PlannerConfig(max_alternatives=2)
        )
        assert len(dags) == 2


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
        # version 2 plans found objects by class name, not per binding
        for version in (2, 99):
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
