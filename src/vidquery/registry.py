"""Component registry: detectors, property functions, binary classifiers,
and frame filters, each with declared cost units and optional seeded error
profiles for synthetic components.

Cost-unit defaults are fixed constants; plan selection depends only on the
ratios they induce.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Optional

from .datamodel import UNDEFINED, VObjInstance
from .trace_io import Detection, TraceRecord, VideoMeta
from .tracker import iou as box_iou

GENERAL_DETECTOR_COST = 100.0
SPECIALIZED_DETECTOR_COST = 20.0
ATTRIBUTE_FN_COST = 5.0
CLASSIFIER_COST = 1.0
GEOMETRIC_FN_COST = 0.1


class RegistryError(Exception):
    """Duplicate or unresolvable registration."""


class ConfigurationError(Exception):
    """A component needs configuration (e.g. calibration) that is absent."""


def finite_number(value) -> bool:
    """True for a finite int or float; a bool is not a number here."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def seeded_unit(seed, *key) -> float:
    """Deterministic uniform draw in [0, 1) keyed by (seed, *key)."""
    digest = hashlib.sha256(
        ":".join(str(k) for k in (seed, *key)).encode()
    ).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


def seeded_flip(seed, *key, rate: float) -> bool:
    """Deterministic Bernoulli draw keyed by (seed, *key)."""
    if rate <= 0.0:
        return False
    if rate >= 1.0:
        return True
    return seeded_unit(seed, *key) < rate


@dataclass(frozen=True)
class ErrorProfile:
    miss_rate: float = 0.0
    false_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.miss_rate <= 1.0 or not 0.0 <= self.false_rate <= 1.0:
            raise ValueError("error rates must be in [0, 1]")

    @property
    def is_zero(self) -> bool:
        return self.miss_rate == 0.0 and self.false_rate == 0.0


@dataclass(frozen=True)
class Registration:
    name: str
    kind: str  # detector | classifier | frame_filter | property_fn
    cost_units: float
    params: dict = field(default_factory=dict)
    error_profile: Optional[ErrorProfile] = None

    def __post_init__(self):
        if self.cost_units <= 0:
            raise ValueError("cost_units must be positive")


class Registry:
    """Name -> registration lookup, frozen after program load."""

    def __init__(self):
        self._regs: dict[tuple[str, str], Registration] = {}
        self._frozen = False

    def register(self, reg: Registration) -> None:
        if self._frozen:
            raise RegistryError("registry is frozen")
        key = (reg.kind, reg.name)
        if key in self._regs:
            raise RegistryError(f"duplicate {reg.kind} registration {reg.name!r}")
        self._regs[key] = reg

    def freeze(self) -> None:
        self._frozen = True

    def resolve(self, kind: str, name: str) -> Registration:
        reg = self._regs.get((kind, name))
        if reg is None:
            raise RegistryError(f"no {kind} registered under {name!r}")
        return reg

    def try_resolve(self, kind: str, name: str) -> Optional[Registration]:
        return self._regs.get((kind, name))

    def digest(self) -> str:
        """Content digest of every registration."""
        payload = json.dumps([vars(r) for _k, r in sorted(self._regs.items())],
                             sort_keys=True, default=repr)
        return hashlib.sha256(payload.encode()).hexdigest()

    def all_of(self, kind: str) -> list[Registration]:
        return [r for (k, _n), r in sorted(self._regs.items()) if k == kind]

    def specialized_detectors_for(self, vobj_names: list[str]) -> list[Registration]:
        """Detectors registered as specializations of any listed type."""
        out = []
        for reg in self.all_of("detector"):
            if reg.params.get("specializes") in vobj_names:
                out.append(reg)
        return out

    def classifiers_for(self, vobj_names: list[str]) -> list[Registration]:
        return [
            r for r in self.all_of("classifier")
            if r.params.get("vobj") in vobj_names
        ]

    def frame_filters_auto(self) -> list[Registration]:
        return [r for r in self.all_of("frame_filter") if r.params.get("auto")]

    def resolve_property_fn(self, name: str) -> Registration:
        """The property function `name`, registered or built in, with its
        implementation resolved: `params["impl"]` is a key of
        `PROPERTY_IMPLS`, and for `attr:x` and `attr_vector:x`,
        `params["attr"]` is `x`."""
        reg = self.try_resolve("property_fn", name)
        impl = name if reg is None else reg.params.get("impl", name)
        head, colon, attr = str(impl).partition(":")
        key = head + colon
        if key not in PROPERTY_IMPLS:
            if reg is None:
                raise RegistryError(
                    f"no property function registered under {name!r}")
            raise RegistryError(
                f"property function {name!r} names no implementation "
                f"{impl!r}")
        params = {**(reg.params if reg else {}), "impl": key}
        if colon:
            params["attr"] = attr
        if reg is None:
            return Registration(name=name, kind="property_fn",
                                cost_units=PROPERTY_IMPLS[key][1],
                                params=params)
        return replace(reg, params=params)


# --- property function implementations -------------------------------------

@dataclass(slots=True)
class PropContext:
    """What a property function may read: a stateful one reads its
    dependency's values on the window's objects, oldest first, and the
    frame ids of the first and last of them.

    `PropertyEngine` keeps one context for a whole pass and sets `node`,
    `deps`, `window_values` and `window_frames` before every call (a
    stateless call has no window, a stateful one no `deps`;
    `call_property_impl` sets `params`), so a function reads only its own
    call's values, and must not keep the context or call back into the
    engine."""

    node: Optional[VObjInstance]
    deps: dict[str, Any]
    window_values: Optional[list]
    meta: Optional[VideoMeta]
    params: Optional[dict] = None  # the registration's; set on each call
    window_frames: Optional[tuple[int, int]] = None


def _impl_center(ctx: PropContext):
    x1, y1, x2, y2 = ctx.deps["bbox"]
    return ((x1 + x2) / 2.0, (y1 + y2) / 2.0)


def _impl_direction(ctx: PropContext):
    centers = ctx.window_values
    dx = centers[-1][0] - centers[0][0]
    dy = centers[-1][1] - centers[0][1]
    if math.hypot(dx, dy) < ctx.params.get("min_displacement", 1.0):
        return "stationary"
    if abs(dx) >= abs(dy):
        return "right" if dx > 0 else "left"
    return "down" if dy > 0 else "up"


def _impl_speed(ctx: PropContext):
    # meters per second: center displacement over the window, scaled by fps,
    # divided by the frames the window spans, first to last inclusive (its
    # length when the track was tracked on each of them), and the pixel
    # calibration
    centers = ctx.window_values
    if ctx.meta is None or ctx.meta.px_per_m is None:
        raise ConfigurationError("speed needs px_per_m calibration in the meta file")
    first, last = ctx.window_frames
    disp = math.dist(centers[0], centers[-1])
    return disp * ctx.meta.fps / (last - first + 1) / ctx.meta.px_per_m


def _impl_attr(ctx: PropContext):
    return ctx.node.attrs.get(ctx.params["attr"], UNDEFINED)


def _impl_attr_vector(ctx: PropContext):
    raw = ctx.node.attrs.get(ctx.params["attr"])
    if raw is None:
        return UNDEFINED
    if isinstance(raw, str):
        return tuple(float(v) for v in raw.split(","))
    return tuple(float(v) for v in raw)


def _cosine(a, b) -> float:
    num = sum(x * y for x, y in zip(a, b))
    da = math.sqrt(sum(x * x for x in a))
    db = math.sqrt(sum(y * y for y in b))
    if da == 0.0 or db == 0.0:
        return 0.0
    return num / (da * db)


def _impl_cosine_similarity(ctx: PropContext):
    vectors = ctx.window_values
    dim = len(vectors[0])
    mean = tuple(sum(v[i] for v in vectors) / len(vectors) for i in range(dim))
    reference = tuple(float(v) for v in ctx.params["reference"])
    return _cosine(mean, reference)


# name -> (implementation, built-in cost); a name ending in ":" is used as
# `name:x` and reads the detection attribute `x`
PROPERTY_IMPLS: dict[str, tuple[Callable[[PropContext], Any], float]] = {
    "attr:": (_impl_attr, ATTRIBUTE_FN_COST),
    "attr_vector:": (_impl_attr_vector, ATTRIBUTE_FN_COST),
    "center": (_impl_center, GEOMETRIC_FN_COST),
    "direction": (_impl_direction, GEOMETRIC_FN_COST),
    "speed": (_impl_speed, GEOMETRIC_FN_COST),
    "cosine_similarity": (_impl_cosine_similarity, ATTRIBUTE_FN_COST),
}


def call_property_impl(reg: Registration, ctx: PropContext):
    """Run a property function that `Registry.resolve_property_fn` returned."""
    ctx.params = reg.params
    return PROPERTY_IMPLS[reg.params["impl"]][0](ctx)


# --- relation property implementations -------------------------------------

def box_centre(bbox) -> tuple[float, float]:
    """The centre of a box, as the relation properties measure it."""
    x1, y1, x2, y2 = bbox
    return (x1 + x2) / 2.0, (y1 + y2) / 2.0


def relation_value(
    name: str, a: VObjInstance, b: VObjInstance, meta: Optional[VideoMeta]
):
    ca, cb = box_centre(a.bbox), box_centre(b.bbox)
    if name == "distance_px":
        return math.dist(ca, cb)
    if name == "distance_m":
        if meta is None or meta.px_per_m is None:
            raise ConfigurationError(
                "distance in meters needs px_per_m calibration"
            )
        return math.dist(ca, cb) / meta.px_per_m
    if name == "iou":
        return box_iou(a.bbox, b.bbox)
    raise RegistryError(f"unknown relation implementation {name!r}")


RELATION_IMPLS = ("distance_px", "distance_m", "iou")


# --- detector / classifier application -------------------------------------

def _attrs_match(det: Detection, required: dict) -> bool:
    return all(det.attrs.get(k) == v for k, v in required.items())


def apply_detector(
    reg: Registration, record: TraceRecord
) -> list[tuple[int, Detection]]:
    """Emit (trace index, detection) pairs this detector produces on a frame.

    The settings are read as they are: `DetectorOp` checks them once and
    gives `classes` as a frozenset and `score_threshold` as a float.
    Synthetic error profiles drop planted detections (miss) per a seeded,
    reproducible draw keyed by frame and detection index.
    """
    classes = reg.params.get("classes", ())
    threshold = reg.params.get("score_threshold", 0.0)
    required = reg.params.get("requires_attrs")
    profile = reg.error_profile
    out = []
    for idx, det in enumerate(record.detections):
        if det.class_name not in classes:
            continue
        if det.score < threshold:
            continue
        if required and not _attrs_match(det, required):
            continue
        if profile and seeded_flip(
            profile.seed, reg.name, "miss", record.frame_id, idx,
            rate=profile.miss_rate,
        ):
            continue
        out.append((idx, det))
    return out


def classify_frame(reg: Registration, record: TraceRecord) -> bool:
    """Binary presence answer for a frame, with seeded error injection."""
    target = reg.params.get("target_class")
    required = reg.params.get("requires_attrs", {})
    present = any(
        d.class_name == target and _attrs_match(d, required)
        for d in record.detections
    )
    profile = reg.error_profile
    if profile is None:
        return present
    if present:
        return not seeded_flip(
            profile.seed, reg.name, "cls_miss", record.frame_id,
            rate=profile.miss_rate,
        )
    return seeded_flip(
        profile.seed, reg.name, "cls_false", record.frame_id,
        rate=profile.false_rate,
    )


# --- built-ins and manifest -------------------------------------------------

def builtin_registry() -> Registry:
    """Registry preloaded with general per-class trace-backed detectors and
    the built-in property functions."""
    reg = Registry()
    for cls in ("car", "person", "bag", "bus", "truck"):
        reg.register(Registration(
            name=f"general_{cls}",
            kind="detector",
            cost_units=GENERAL_DETECTOR_COST,
            params={"classes": [cls], "score_threshold": 0.0},
        ))
    return reg


def _manifest_number(obj: dict, key: str, default, convert=float):
    value = obj.get(key, default)
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError):  # int() of an infinity
        raise RegistryError(f"bad {key} {value!r}") from None


def load_manifest(path, registry: Optional[Registry] = None) -> Registry:
    """Extend a registry from a manifest file of registrations.  A manifest
    of the wrong shape raises `RegistryError`."""
    registry = registry or builtin_registry()
    with Path(path).open() as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict):
        raise RegistryError("the manifest is not a JSON object")
    entries = manifest.get("registrations", [])
    if not isinstance(entries, list):
        raise RegistryError("'registrations' is not a list")
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise RegistryError(f"registration {i} is not an object")
        for key in ("kind", "name"):
            if not isinstance(entry.get(key), str):
                raise RegistryError(f"registration {i} has no string {key!r}")
        if not isinstance(entry.get("subsumes", {}), dict):
            raise RegistryError(f"registration {i}: subsumes is not an object")
        profile = None
        if "error_profile" in entry:
            ep = entry["error_profile"]
            if not isinstance(ep, dict):
                raise RegistryError(
                    f"registration {i}: error_profile is not an object")
            profile = ErrorProfile(
                miss_rate=_manifest_number(ep, "miss_rate", 0.0),
                false_rate=_manifest_number(ep, "false_rate", 0.0),
                seed=_manifest_number(ep, "seed", 0, int),
            )
        kind = entry["kind"]
        default_cost = {
            "detector": SPECIALIZED_DETECTOR_COST if entry.get("specializes")
            else GENERAL_DETECTOR_COST,
            "classifier": CLASSIFIER_COST,
            "frame_filter": GEOMETRIC_FN_COST,
            "property_fn": ATTRIBUTE_FN_COST,
        }.get(kind, ATTRIBUTE_FN_COST)
        params = {
            k: v for k, v in entry.items()
            if k not in ("name", "kind", "cost_units", "error_profile")
        }
        registry.register(Registration(
            name=entry["name"],
            kind=kind,
            cost_units=_manifest_number(entry, "cost_units", default_cost),
            params=params,
            error_profile=profile,
        ))
    return registry
