"""Parser diagnostics, AST round trips, and semantic validation."""

import re
import pytest

from vidquery.dsl import (
    And,
    Compare,
    DslSyntaxError,
    Not,
    Or,
    ValidationError,
    DurationDecl,
    PropRef,
    QueryDecl,
    RelationDecl,
    SpatialDecl,
    TemporalDecl,
    VObjTypeDecl,
    conjuncts,
    parse,
    validate,
)

from conftest import BAD_SHAPES, SHAPE_TYPES

CAR = """
vobj Car {
  detector: "general_car"
  property color: stateless(impl="attr:color") intrinsic
  property center: stateless(impl="center", deps=[bbox])
  property direction: stateful(impl="direction", deps=[center], window=5)
}
"""


def q(body: str) -> str:
    return CAR + body


class TestParser:
    def test_full_program_shapes(self):
        program = parse(q("""
        relation Near(Car, Car) {
          property distance_px: stateless(impl="distance_px")
        }
        query reds {
          bind c: Car
          frame_constraint: c.color == "red" & c.direction == "right"
          frame_output: c.color, c.direction
          video_output: count_distinct(c)
        }
        duration query reds_held {
          base: reds
          min_frames: 10
          gap_tolerance: 1
        }
        """))
        kinds = [type(d) for d in program.decls]
        assert kinds == [VObjTypeDecl, RelationDecl, QueryDecl, DurationDecl]
        query = program.decls[2]
        assert query.bindings == [("c", "Car")]
        assert query.frame_constraint == And((
            Compare(PropRef("c", "color"), "==", "red"),
            Compare(PropRef("c", "direction"), "==", "right"),
        ))
        assert query.frame_output == [PropRef("c", "color"),
                                      PropRef("c", "direction")]
        assert query.video_output == ("count_distinct", "c")
        held = program.decls[3]
        assert (held.base, held.min_frames, held.min_seconds,
                held.gap_tolerance) == ("reds", 10, None, 1)

    def test_negation_in_list_spatial_and_temporal_shapes(self):
        src = q("""
        relation Near(Car, Car) {
          property iou: stateless(impl="iou")
        }
        query fast {
          bind c: Car
          frame_constraint: !(c.color in ["red", "blue"]) | c.direction == "left"
        }
        spatial query pair {
          first: fast
          second: fast
          relation: Near
          predicate: Near(c, c).iou > 0.5
        }
        temporal query seq {
          first: fast
          then: fast
          max_interval_frames: 30
        }
        """)
        program = parse(src)
        near = program.relations["Near"]
        assert near.participants == ("Car", "Car")
        assert [(p.name, p.kind, p.impl) for p in near.properties] == [
            ("iou", "stateless", "iou")]
        assert program.queries["fast"].frame_constraint == Or((
            Not(Compare(PropRef("c", "color"), "in", ("red", "blue"))),
            Compare(PropRef("c", "direction"), "==", "left"),
        ))
        pair, seq = program.decls[3:]
        assert isinstance(pair, SpatialDecl)
        assert (pair.first, pair.second, pair.relation) == (
            "fast", "fast", "Near")
        assert pair.predicate == Compare(
            PropRef(None, "iou", "Near", ("c", "c")), ">", 0.5)
        assert isinstance(seq, TemporalDecl)
        assert (seq.first, seq.then, seq.max_interval_frames,
                seq.max_interval_seconds) == ("fast", "fast", 30, None)

    def test_precedence_and_over_or(self):
        program = parse(q("""
        query x {
          bind c: Car
          frame_constraint: c.color == "red" & c.direction == "left" | c.color == "blue"
        }
        """))
        expr = program.queries["x"].frame_constraint
        assert isinstance(expr, Or)
        assert isinstance(expr.items[0], And)
        assert isinstance(expr.items[1], Compare)

    def test_not_and_grouping(self):
        program = parse(q("""
        query x {
          bind c: Car
          frame_constraint: !(c.color == "red" | c.color == "blue")
        }
        """))
        expr = program.queries["x"].frame_constraint
        assert isinstance(expr, Not)
        assert isinstance(expr.item, Or)

    def test_numbers_normalized_to_float(self):
        program = parse(q("""
        query x {
          bind c: Car
          frame_constraint: c.direction != "up" & c.color in [1, 2.5]
        }
        """))
        cs = conjuncts(program.queries["x"].frame_constraint)
        assert cs[1].literal == (1.0, 2.5)
        assert all(isinstance(v, float) for v in cs[1].literal)

    def test_syntax_error_location(self):
        with pytest.raises(DslSyntaxError) as exc:
            parse("vobj Car {\n  detector 3\n}", file="bad.vq")
        assert str(exc.value).startswith("bad.vq:2:")

    def test_unexpected_character(self):
        with pytest.raises(DslSyntaxError) as exc:
            parse("vobj C@r {}")
        assert "unexpected character" in str(exc.value)

    def test_duplicate_declaration(self):
        with pytest.raises(DslSyntaxError) as exc:
            parse("vobj Car {}\nvobj Car {}")
        assert "duplicate" in str(exc.value)

    def test_missing_higher_order_item(self):
        with pytest.raises(DslSyntaxError) as exc:
            parse("duration query d { min_frames: 3 }")
        assert "missing item 'base'" in str(exc.value)

    def test_unknown_higher_order_item(self):
        with pytest.raises(DslSyntaxError) as exc:
            parse("temporal query t { first: a then: b window: 3 }")
        assert "unknown item 'window'" in str(exc.value)

    @pytest.mark.parametrize("items, message", [
        ("min_frames: 0", "min_frames must be a whole number >= 1, found '0'"),
        ("min_frames: -2", "min_frames must be a whole number >= 1, found '-2'"),
        ("min_frames: 2.5",
         "min_frames must be a whole number >= 1, found '2.5'"),
        ("min_frames: x", "min_frames must be a whole number >= 1, found 'x'"),
        ("min_frames: 3 gap_tolerance: -1",
         "gap_tolerance must be a whole number >= 0, found '-1'"),
        ("min_frames: 3 gap_tolerance: 1.0",
         "gap_tolerance must be a whole number >= 0, found '1.0'"),
        ("min_seconds: 0", "min_seconds must be a number > 0, found '0'"),
        ("min_seconds: -1.5", "min_seconds must be a number > 0, found '-1.5'"),
        ("min_seconds: " + "9" * 400 + ".0",
         "min_seconds must be a number > 0, found '99"),
    ], ids=["min-frames-0", "min-frames-negative", "min-frames-fraction",
            "min-frames-name", "gap-negative", "gap-fraction",
            "min-seconds-0", "min-seconds-negative", "min-seconds-infinite"])
    def test_duration_numbers_checked(self, items, message):
        with pytest.raises(DslSyntaxError) as exc:
            parse(f"duration query d {{\n  base: b {items}\n}}", file="d.vq")
        column = 11 + items.rindex(":") + 2
        assert str(exc.value).startswith(
            f"d.vq:2:{column}: duration query 'd': {message}")

    @pytest.mark.parametrize("items, message", [
        ("max_interval_frames: -1",
         "max_interval_frames must be a whole number >= 0, found '-1'"),
        ("max_interval_frames: 1.5",
         "max_interval_frames must be a whole number >= 0, found '1.5'"),
        ("max_interval_seconds: -0.5",
         "max_interval_seconds must be a number >= 0, found '-0.5'"),
        ("max_interval_seconds: x",
         "max_interval_seconds must be a number >= 0, found 'x'"),
    ], ids=["frames-negative", "frames-fraction", "seconds-negative",
            "seconds-name"])
    def test_temporal_numbers_checked(self, items, message):
        with pytest.raises(DslSyntaxError) as exc:
            parse(f"temporal query t {{ first: a then: b {items} }}")
        assert f"temporal query 't': {message}" in str(exc.value)

    def test_numbers_at_their_bounds_parse(self):
        program = parse("""
        duration query d { base: b min_frames: 1 gap_tolerance: 0 }
        duration query e { base: b min_seconds: 0.1 }
        temporal query t { first: a then: b max_interval_frames: 0 }
        temporal query u { first: a then: b max_interval_seconds: 0 }
        """)
        d, e, t, u = program.decls
        assert (d.min_frames, d.gap_tolerance, e.min_seconds) == (1, 0, 0.1)
        assert (t.max_interval_frames, u.max_interval_seconds) == (0, 0)

    def test_comments_ignored(self):
        program = parse("# leading\nvobj Car { # inline\n}\n")
        assert "Car" in program.vobjs


class TestValidation:
    def diags(self, src: str) -> str:
        with pytest.raises(ValidationError) as exc:
            validate(parse(src))
        return str(exc.value)

    def test_clean_program(self):
        vprog = validate(parse(q("""
        query x {
          bind c: Car
          frame_constraint: c.color == "red"
        }
        """)))
        assert vprog.types["Car"].prop_order.index("center") < \
            vprog.types["Car"].prop_order.index("direction")
        assert vprog.types["Car"].max_window == 5

    def test_max_window_reaches_through_nested_windows(self):
        vprog = validate(parse(CAR + """
        vobj Plain { property center: stateless(impl="center", deps=[bbox]) }
        vobj Turning extends Car {
          property turn: stateful(impl="direction", deps=[direction], window=3)
        }
        """))
        assert vprog.types["Plain"].max_window == 0  # keeps no objects
        # turn's 3 values of direction read 3 + 5 - 1 latest objects
        assert vprog.types["Turning"].max_window == 7

    def test_inheritance_flattening_child_overrides(self):
        vprog = validate(parse(CAR + """
        vobj RedCar extends Car {
          detector: "red_car"
          property color: stateless(impl="attr:paint") intrinsic
        }
        query x { bind c: RedCar
          frame_constraint: c.color == "red" }
        """))
        flat = vprog.types["RedCar"]
        assert flat.detector == "red_car"
        assert flat.props["color"].impl == "attr:paint"
        assert flat.ancestors == ["RedCar", "Car"]

    def test_scene_reserved(self):
        assert "reserved" in self.diags("vobj Scene {}")

    def test_inheritance_cycle(self):
        text = self.diags("""
        vobj A extends B {}
        vobj B extends A {}
        query x { bind a: A
          frame_constraint: a.bbox == 1 }
        """)
        assert "cycle" in text

    def test_intrinsic_must_be_stateless(self):
        text = self.diags("""
        vobj Car {
          detector: "general_car"
          property c: stateless(impl="center", deps=[bbox])
          property d: stateful(impl="direction", deps=[c], window=5) intrinsic
        }
        query x { bind c: Car
          frame_constraint: c.d == "up" }
        """)
        assert "intrinsic" in text

    def test_stateful_window_and_arity(self):
        text = self.diags("""
        vobj Car {
          detector: "general_car"
          property a: stateless(impl="center", deps=[bbox])
          property b: stateless(impl="center", deps=[bbox])
          property d: stateful(impl="direction", deps=[a, b])
        }
        query x { bind c: Car
          frame_constraint: c.d == "up" }
        """)
        assert "window >= 1" in text
        assert "exactly one" in text

    def test_unknown_dependency(self):
        text = self.diags("""
        vobj Car {
          detector: "general_car"
          property d: stateless(impl="center", deps=[nope])
        }
        query x { bind c: Car
          frame_constraint: c.d == "up" }
        """)
        assert "unknown dependency 'nope'" in text

    def test_dependency_cycle_named(self):
        text = self.diags("""
        vobj Car {
          detector: "general_car"
          property a: stateless(impl="center", deps=[b])
          property b: stateless(impl="center", deps=[a])
        }
        query x { bind c: Car
          frame_constraint: c.a == 1 }
        """)
        assert "dependency cycle" in text
        assert "a -> b -> a" in text or "b -> a -> b" in text

    def test_unknown_binding_and_property(self):
        text = self.diags(q("""
        query x {
          bind c: Car
          frame_constraint: d.color == "red" & c.height > 3
        }
        """))
        assert "unknown binding 'd'" in text
        assert "no property 'height'" in text

    def test_ordered_comparison_needs_number(self):
        text = self.diags(q("""
        query x { bind c: Car
          frame_constraint: c.color > "red" }
        """))
        assert "numeric literal" in text

    def test_cross_binding_conjunct_rejected(self):
        text = self.diags(q("""
        query x {
          bind a: Car
          bind b: Car
          frame_constraint: (a.color == "red" | b.color == "red")
        }
        """))
        assert "only one binding" in text

    def test_query_needs_constraint(self):
        text = self.diags(q("query x { bind c: Car }"))
        assert "frame_constraint or video_constraint" in text

    def test_scene_channels_unchecked(self):
        vprog = validate(parse(q("""
        query x {
          bind s: Scene
          bind c: Car
          frame_constraint: s.motion_score > 0.5 & c.color == "red"
        }
        """)))
        assert dict(vprog.queries["x"].bindings)["s"] == "Scene"

    def test_effective_constraint_inherits(self):
        program = parse(q("""
        query base_q {
          bind c: Car
          frame_constraint: c.color == "red"
        }
        query child_q extends base_q {
          frame_constraint: c.direction == "left"
        }
        """))
        flat = validate(program).queries["child_q"]
        assert flat.binding_conjs == {"c": [
            Compare(PropRef("c", "color"), "==", "red"),
            Compare(PropRef("c", "direction"), "==", "left")]}


SPATIAL_BASE = CAR + """
vobj Person {
  detector: "general_person"
  property role: stateless(impl="attr:role") intrinsic
}
relation Near(Car, Person) {
  property distance_px: stateless(impl="distance_px")
}
query reds {
  bind c: Car
  frame_constraint: c.color == "red"
}
query people {
  bind p: Person
  frame_constraint: p.role == "adult"
}
spatial query close_pair {
  first: reds
  second: people
  relation: Near
  predicate: Near(c, p).distance_px < 100
}
duration query lingering {
  base: close_pair
  min_frames: 5
}
"""


class TestCompositionRules:
    def test_spatial_over_duration_rejected(self):
        src = SPATIAL_BASE + """
        spatial query bad {
          first: lingering
          second: people
          relation: Near
          predicate: Near(c, p).distance_px < 50
        }
        """
        with pytest.raises(ValidationError) as exc:
            validate(parse(src))
        assert "Rule 1" in str(exc.value)

    def test_duration_over_spatial_accepted(self):
        vprog = validate(parse(SPATIAL_BASE))
        assert vprog.queries["lingering"].kind == "duration"
        assert vprog.queries["lingering"].base == "close_pair"

    def test_temporal_over_temporal_accepted(self):
        src = SPATIAL_BASE + """
        temporal query first_seq {
          first: reds
          then: people
          max_interval_frames: 10
        }
        temporal query nested {
          first: first_seq
          then: reds
          max_interval_frames: 20
        }
        """
        vprog = validate(parse(src))
        assert vprog.queries["nested"].kind == "temporal"
        assert vprog.queries["nested"].first == "first_seq"

    def test_duration_over_duration_rejected(self):
        src = SPATIAL_BASE + """
        duration query bad {
          base: lingering
          min_frames: 3
        }
        """
        with pytest.raises(ValidationError) as exc:
            validate(parse(src))
        assert "Rule 2" in str(exc.value)

    def test_spatial_subqueries_must_bind_one(self):
        src = SPATIAL_BASE + """
        query two {
          bind a: Car
          bind b: Person
          frame_constraint: a.color == "red" & b.role == "adult"
        }
        spatial query bad {
          first: two
          second: people
          relation: Near
          predicate: Near(a, p).distance_px < 50
        }
        """
        with pytest.raises(ValidationError) as exc:
            validate(parse(src))
        assert "exactly one VObj" in str(exc.value)

    def test_spatial_flattening_merges_constraints(self):
        vprog = validate(parse(SPATIAL_BASE))
        flat = vprog.queries["close_pair"]
        assert flat.kind == "spatial"
        assert [b for b, _t in flat.bindings] == ["c", "p"]
        assert flat.scene_conjs == []
        assert flat.binding_conjs == {
            "c": [Compare(PropRef("c", "color"), "==", "red")],
            "p": [Compare(PropRef("p", "role"), "==", "adult")],
        }
        assert flat.relation_pred == Compare(
            PropRef(None, "distance_px", "Near", ("c", "p")), "<", 100.0)


class TestQueryShape:
    """The validator owns a query's shape: what it accepts, the planner lays
    out as it is given."""

    @pytest.mark.parametrize("source, message", BAD_SHAPES)
    def test_shape_rejected(self, source, message):
        with pytest.raises(ValidationError) as exc:
            validate(parse(SHAPE_TYPES + source))
        # one diagnostic, the shape's own
        assert [message in d.message for d in exc.value.diagnostics] == [True]

    @pytest.mark.parametrize("source, message", BAD_SHAPES)
    def test_diagnostic_at_its_declaration(self, source, message):
        program = parse(SHAPE_TYPES + source)
        with pytest.raises(ValidationError) as exc:
            validate(program)
        (diag,) = exc.value.diagnostics
        name = re.match(r"(?:(?:spatial )?query|relation) '?(\w+)'?:",
                        diag.message).group(1)
        (decl,) = [d for d in program.decls if d.name == name]
        assert decl.loc.line > SHAPE_TYPES.count("\n")  # one of `source`'s
        assert (diag.line, diag.col) == (decl.loc.line, decl.loc.col)

    def test_frame_constraint_split(self):
        flat = validate(parse(SHAPE_TYPES + """
        query q {
          bind s: Scene
          bind c: Car
          bind p: Person
          frame_constraint: s.motion_score > 0.5 & !(c.color == "blue")
            & (p.role == "adult" | p.role == "child") & s.motion_score < 0.9
        }
        """)).queries["q"]
        assert flat.scene_conjs == [
            Compare(PropRef("s", "motion_score"), ">", 0.5),
            Compare(PropRef("s", "motion_score"), "<", 0.9)]
        assert flat.binding_conjs == {
            "c": [Not(Compare(PropRef("c", "color"), "==", "blue"))],
            "p": [Or((Compare(PropRef("p", "role"), "==", "adult"),
                      Compare(PropRef("p", "role"), "==", "child")))],
        }

    def test_video_constraint_counts_the_first_object_binding(self):
        flat = validate(parse(SHAPE_TYPES + """
        query q {
          bind s: Scene
          bind c: Car
          bind p: Person
          frame_constraint: s.motion_score > 0.5
          video_constraint: c.direction == "right"
        }
        """)).queries["q"]
        assert flat.video_output == ("count_distinct", "c")

    def test_relation_arguments_in_either_order(self):
        vprog = validate(parse(SHAPE_TYPES + """
        spatial query pair { first: reds second: adults relation: Near
          predicate: Near(p, c).distance_px < 100 }
        """))
        assert vprog.queries["pair"].relation == "Near"
