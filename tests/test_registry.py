"""Component registry: lookup rules, seeded errors, and property functions."""

import math

import pytest

from vidquery.registry import (
    ATTRIBUTE_FN_COST,
    ConfigurationError,
    ErrorProfile,
    GENERAL_DETECTOR_COST,
    GEOMETRIC_FN_COST,
    PropContext,
    Registration,
    Registry,
    RegistryError,
    SPECIALIZED_DETECTOR_COST,
    apply_detector,
    builtin_registry,
    call_property_impl,
    classify_frame,
    load_manifest,
    relation_value,
    seeded_flip,
)
from vidquery.datamodel import UNDEFINED
from vidquery.trace_io import Detection, TraceRecord, VideoMeta


def ctx(node=None, deps=None, window=None, meta=None, params=None,
        frames=None):
    """A property call's context; a window spans the frames `frames`, or
    by default one frame per value, from frame 0."""
    if frames is None and window is not None:
        frames = (0, len(window) - 1)
    return PropContext(
        node=node, deps=deps or {}, window_values=window, meta=meta,
        params=params or {}, window_frames=frames,
    )


def record(frame, dets):
    return TraceRecord(frame_id=frame, detections=tuple(dets), channels={})


def det(cls="car", bbox=(0.0, 0.0, 10.0, 10.0), score=0.9, **attrs):
    return Detection(class_name=cls, bbox=bbox, score=score, attrs=attrs)


class TestSeededFlip:
    def test_deterministic(self):
        a = seeded_flip(7, "x", 3, rate=0.5)
        assert seeded_flip(7, "x", 3, rate=0.5) == a

    def test_edge_rates(self):
        assert seeded_flip(1, "k", rate=0.0) is False
        assert seeded_flip(1, "k", rate=1.0) is True

    def test_statistical_rate(self):
        hits = sum(seeded_flip(42, "stat", i, rate=0.3) for i in range(10_000))
        assert abs(hits / 10_000 - 0.3) < 0.02

    def test_key_sensitivity(self):
        draws = {seeded_flip(42, "a", i, rate=0.5) for i in range(64)}
        assert draws == {True, False}


class TestRegistryLookup:
    def test_duplicate_rejected(self):
        r = Registry()
        r.register(Registration(name="d", kind="detector", cost_units=1))
        with pytest.raises(RegistryError):
            r.register(Registration(name="d", kind="detector", cost_units=1))
        # same name under a different kind is fine
        r.register(Registration(name="d", kind="classifier", cost_units=1))

    def test_frozen_rejects_registration(self):
        r = Registry()
        r.freeze()
        with pytest.raises(RegistryError):
            r.register(Registration(name="d", kind="detector", cost_units=1))

    def test_resolve_and_missing(self):
        r = builtin_registry()
        assert r.resolve("detector", "general_car").cost_units == \
            GENERAL_DETECTOR_COST
        with pytest.raises(RegistryError):
            r.resolve("detector", "nope")
        assert r.try_resolve("detector", "nope") is None

    def test_cost_units_positive(self):
        with pytest.raises(ValueError):
            Registration(name="d", kind="detector", cost_units=0)

    def test_error_profile_range(self):
        with pytest.raises(ValueError):
            ErrorProfile(miss_rate=1.5)
        assert ErrorProfile().is_zero
        assert not ErrorProfile(miss_rate=0.1).is_zero

    def test_specialized_and_classifier_queries(self):
        r = builtin_registry()
        r.register(Registration(
            name="red_car", kind="detector",
            cost_units=SPECIALIZED_DETECTOR_COST,
            params={"classes": ["car"], "specializes": "Car"},
        ))
        r.register(Registration(
            name="has_car", kind="classifier", cost_units=1,
            params={"vobj": "Car", "target_class": "car"},
        ))
        assert [x.name for x in r.specialized_detectors_for(["Car"])] == \
            ["red_car"]
        assert r.specialized_detectors_for(["Person"]) == []
        assert [x.name for x in r.classifiers_for(["Car"])] == ["has_car"]

    def test_resolve_property_fn(self):
        r = builtin_registry()
        assert r.resolve_property_fn("center").cost_units == GEOMETRIC_FN_COST
        attr = r.resolve_property_fn("attr:color")
        assert attr.cost_units == ATTRIBUTE_FN_COST
        assert attr.params == {"impl": "attr:", "attr": "color"}
        # an attribute lookup needs its attribute; nothing else takes one
        for name in ("nope", "attr", "center:x"):
            with pytest.raises(RegistryError):
                r.resolve_property_fn(name)


def make_node(bbox=(0.0, 0.0, 10.0, 10.0), **attrs):
    from vidquery.datamodel import VObjInstance
    return VObjInstance(
        node_id=(0, 0), class_name="Car", frame_id=0, bbox=bbox,
        properties={}, attrs=attrs,
    )


class TestPropertyImpls:
    def reg(self, impl, **params):
        """A function registered under `impl`, resolved as a pass links it."""
        registry = Registry()
        registry.register(Registration(
            name="fn", kind="property_fn", cost_units=1,
            params={"impl": impl, **params},
        ))
        return registry.resolve_property_fn("fn")

    def test_center(self):
        value = call_property_impl(
            self.reg("center"), ctx(deps={"bbox": (0.0, 10.0, 20.0, 30.0)})
        )
        assert value == (10.0, 20.0)

    def test_direction_vocabulary(self):
        cases = {
            ((0, 0), (10, 1)): "right",
            ((10, 0), (0, 1)): "left",
            ((0, 0), (1, 10)): "down",
            ((0, 10), (1, 0)): "up",
            ((0, 0), (0.2, 0.2)): "stationary",
        }
        for (a, b), expected in cases.items():
            value = call_property_impl(
                self.reg("direction"), ctx(window=[a, b])
            )
            assert value == expected, (a, b)

    def test_speed_kinematics(self):
        # 30 px over a 5-frame window at 10 fps and 10 px/m:
        # 30 * 10 / 5 / 10 = 6 m/s
        meta = VideoMeta(fps=10, width=1000, height=1000, frame_count=10,
                         px_per_m=10.0)
        centers = [(float(6 * i), 0.0) for i in range(5)]
        value = call_property_impl(
            self.reg("speed"), ctx(window=centers, meta=meta)
        )
        assert value == pytest.approx(24.0 * 10 / 5 / 10)

    def test_speed_requires_calibration(self):
        meta = VideoMeta(fps=10, width=10, height=10, frame_count=1)
        with pytest.raises(ConfigurationError):
            call_property_impl(
                self.reg("speed"), ctx(window=[(0, 0), (1, 0)], meta=meta)
            )

    def test_attr_and_missing(self):
        node = make_node(color="red")
        assert call_property_impl(
            self.reg("attr:color"), ctx(node=node)
        ) == "red"
        assert call_property_impl(
            self.reg("attr:shape"), ctx(node=node)
        ) is UNDEFINED

    def test_attr_vector_parses_strings(self):
        node = make_node(emb="1,0,0")
        value = call_property_impl(self.reg("attr_vector:emb"), ctx(node=node))
        assert value == (1.0, 0.0, 0.0)

    def test_cosine_similarity(self):
        value = call_property_impl(
            self.reg("cosine_similarity", reference=[1, 0]),
            ctx(window=[(1.0, 0.0), (0.0, 1.0)]),
        )
        # mean vector (0.5, 0.5) vs (1, 0) -> cos 45deg
        assert value == pytest.approx(math.cos(math.pi / 4))

    def test_unknown_impl(self):
        with pytest.raises(RegistryError):
            self.reg("warp")


class TestRelationValues:
    def test_distance_px(self):
        a = make_node(bbox=(0.0, 0.0, 10.0, 10.0))  # center (5, 5)
        b = make_node(bbox=(30.0, 40.0, 50.0, 60.0))  # center (40, 50)
        assert relation_value("distance_px", a, b, None) == \
            pytest.approx(math.hypot(35, 45))

    def test_distance_m_needs_calibration(self):
        a, b = make_node(), make_node(bbox=(20.0, 0.0, 30.0, 10.0))
        with pytest.raises(ConfigurationError):
            relation_value("distance_m", a, b, None)
        meta = VideoMeta(fps=10, width=100, height=100, frame_count=1,
                         px_per_m=10.0)
        assert relation_value("distance_m", a, b, meta) == pytest.approx(2.0)

    def test_iou_delegates(self):
        a = make_node(bbox=(0.0, 0.0, 10.0, 10.0))
        b = make_node(bbox=(5.0, 0.0, 15.0, 10.0))
        assert relation_value("iou", a, b, None) == pytest.approx(50 / 150)

    def test_unknown(self):
        with pytest.raises(RegistryError):
            relation_value("overlap", make_node(), make_node(), None)


class TestDetectorApplication:
    def test_filters_class_score_attrs(self):
        reg = Registration(
            name="d", kind="detector", cost_units=1,
            params={"classes": ["car"], "score_threshold": 0.5,
                    "requires_attrs": {"color": "red"}},
        )
        r = record(0, [
            det("car", score=0.9, color="red"),     # kept
            det("car", score=0.3, color="red"),     # low score
            det("person", score=0.9, color="red"),  # wrong class
            det("car", score=0.9, color="blue"),    # attr mismatch
        ])
        assert [i for i, _d in apply_detector(reg, r)] == [0]

    def test_error_profile_misses_frozen_subset(self):
        profile = ErrorProfile(miss_rate=0.3, seed=77)
        reg = Registration(
            name="flaky", kind="detector", cost_units=1,
            params={"classes": ["car"]}, error_profile=profile,
        )
        kept = [
            [i for i, _d in apply_detector(reg, record(f, [det()] * 4))]
            for f in range(20)
        ]
        # [DERIVED] independently recomputed from the seeded draw
        expected = [
            [i for i in range(4)
             if not seeded_flip(77, "flaky", "miss", f, i, rate=0.3)]
            for f in range(20)
        ]
        assert kept == expected
        assert any(len(k) < 4 for k in kept)  # the profile actually bites

    def test_classify_frame(self):
        reg = Registration(
            name="has_red_car", kind="classifier", cost_units=1,
            params={"target_class": "car", "requires_attrs": {"color": "red"}},
        )
        assert classify_frame(reg, record(0, [det(color="red")])) is True
        assert classify_frame(reg, record(0, [det(color="blue")])) is False
        assert classify_frame(reg, record(0, [])) is False

    def test_classify_frame_with_errors(self):
        profile = ErrorProfile(miss_rate=1.0, false_rate=1.0, seed=1)
        reg = Registration(
            name="c", kind="classifier", cost_units=1,
            params={"target_class": "car"}, error_profile=profile,
        )
        assert classify_frame(reg, record(0, [det()])) is False  # always missed
        assert classify_frame(reg, record(0, [])) is True  # always false-fires


class TestManifest:
    def test_load_defaults_and_profiles(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("""
        {"registrations": [
          {"name": "red_car", "kind": "detector", "classes": ["car"],
           "specializes": "Car", "subsumes": {"color": "red"},
           "error_profile": {"miss_rate": 0.05, "seed": 9}},
          {"name": "plain", "kind": "detector", "classes": ["bus"]},
          {"name": "has_car", "kind": "classifier", "target_class": "car",
           "vobj": "Car"},
          {"name": "crop", "kind": "frame_filter", "auto": true,
           "cost_units": 0.5}
        ]}
        """)
        r = load_manifest(path)
        spec = r.resolve("detector", "red_car")
        assert spec.cost_units == SPECIALIZED_DETECTOR_COST
        assert spec.params["subsumes"] == {"color": "red"}
        assert spec.error_profile == ErrorProfile(miss_rate=0.05, seed=9)
        assert r.resolve("detector", "plain").cost_units == \
            GENERAL_DETECTOR_COST
        assert r.resolve("detector", "plain").error_profile is None
        assert r.resolve("classifier", "has_car").cost_units == 1.0
        assert r.resolve("frame_filter", "crop").cost_units == 0.5
        assert [x.name for x in r.frame_filters_auto()] == ["crop"]
        # builtins still present
        assert r.try_resolve("detector", "general_car") is not None
