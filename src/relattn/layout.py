"""Token layout: a video latent concatenated with condition frames.

The token sequence is the denoising video latent (``T`` frames of ``H*W``
tokens, raster order) followed by one latent frame of ``H*W`` tokens per
condition entity.  Entities are declared background/object first, then
subject groups; inside a group the face comes first, then its attributes.
That declaration order fixes every derived index in this package.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass
from functools import cached_property

KINDS = ("background", "object", "face", "attribute")
SUBJECT_KINDS = ("face", "attribute")

MAX_ATTRIBUTES_PER_GROUP = 3


def _check_int(name: str, value, least: int) -> None:
    """Raise ValueError unless ``value`` is an integer >= ``least``; a bool is not."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


class LayoutError(ValueError):
    """Base error for layout documents; ``path`` points at the offending node."""

    def __init__(self, message: str, path: str = "$"):
        super().__init__(f"{message} (at {path})")
        self.path = path


class LayoutSyntaxError(LayoutError):
    pass


class LayoutSchemaError(LayoutError):
    pass


class LayoutInvariantError(LayoutError):
    pass


@dataclass(frozen=True)
class Entity:
    """One condition image worth of tokens (a single latent frame of H*W)."""

    kind: str
    group: int | None = None
    span: tuple[int, int] | None = None


@dataclass(frozen=True)
class LayoutSpec:
    """Validated description of one customization instance."""

    T: int
    H: int
    W: int
    entities: tuple[Entity, ...] = ()
    text_len: int = 0

    def __post_init__(self):
        object.__setattr__(self, "entities", tuple(self.entities))
        _validate(self)

    @property
    def hw(self) -> int:
        return self.H * self.W

    @property
    def n_entities(self) -> int:
        return len(self.entities)

    @property
    def n_video_tokens(self) -> int:
        return self.T * self.hw

    @property
    def n_tokens(self) -> int:
        return (self.T + self.n_entities) * self.hw

    @cached_property
    def n_bgobj(self) -> int:
        return sum(1 for e in self.entities if e.kind not in SUBJECT_KINDS)

    @cached_property
    def groups(self) -> tuple[tuple[int, ...], ...]:
        """Entity ordinals of each subject group, in group order (face first)."""
        out: list[list[int]] = []
        for idx, ent in enumerate(self.entities):
            if ent.kind == "face":
                out.append([idx])
            elif ent.kind == "attribute":
                out[-1].append(idx)
        return tuple(tuple(g) for g in out)

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    def entity_range(self, e: int) -> tuple[int, int]:
        """Flat token range [start, end) of condition entity ``e``."""
        start = (self.T + e) * self.hw
        return start, start + self.hw

    @cached_property
    def branch_labels(self) -> tuple[str, ...]:
        """Attention-branch label per condition entity.

        Background/object entities are their own branch; a whole subject
        group (face plus attributes) is one branch.
        """
        return tuple(
            f"group{ent.group}" if ent.kind in SUBJECT_KINDS else f"entity{idx}"
            for idx, ent in enumerate(self.entities)
        )

    @property
    def n_branches(self) -> int:
        """Condition branches only: one per bg/obj entity plus one per group."""
        return self.n_bgobj + self.n_groups


def _validate(spec: LayoutSpec) -> None:
    if spec.T < 1 or spec.H < 1 or spec.W < 1:
        raise LayoutInvariantError("T, H, W must all be >= 1", "$.T/H/W")
    if spec.text_len < 0:
        raise LayoutInvariantError("text_len must be >= 0", "$.text_len")

    seen_subject = False
    expected_group = -1
    n_attrs = 0
    for i, ent in enumerate(spec.entities):
        path = f"$.entities[{i}]"
        if ent.kind not in KINDS:
            raise LayoutInvariantError(f"unknown kind {ent.kind!r}", f"{path}.kind")
        if ent.kind in SUBJECT_KINDS:
            if ent.group is None:
                raise LayoutInvariantError(f"{ent.kind} entity requires a group ordinal", f"{path}.group")
            seen_subject = True
            if ent.kind == "face":
                if ent.group != expected_group + 1:
                    raise LayoutInvariantError(
                        f"subject groups must appear as 0,1,... in order; got face with group {ent.group}"
                        + (", expected a new group" if ent.group == expected_group else ""),
                        f"{path}.group",
                    )
                expected_group = ent.group
                n_attrs = 0
            else:
                if expected_group < 0 or ent.group != expected_group:
                    raise LayoutInvariantError(
                        f"attribute with group {ent.group} must directly follow its group's face",
                        f"{path}.group",
                    )
                n_attrs += 1
                if n_attrs > MAX_ATTRIBUTES_PER_GROUP:
                    raise LayoutInvariantError(
                        f"a subject group allows at most {MAX_ATTRIBUTES_PER_GROUP} attributes",
                        f"{path}",
                    )
        else:
            if ent.group is not None:
                raise LayoutInvariantError(f"{ent.kind} entity must not carry a group ordinal", f"{path}.group")
            if seen_subject:
                raise LayoutInvariantError(
                    "background/object entities must precede all subject groups", path
                )
        if ent.span is not None:
            s, t = ent.span
            if not (0 <= s <= t <= spec.text_len):
                raise LayoutInvariantError(
                    f"span [{s},{t}) outside [0,{spec.text_len})", f"{path}.span"
                )

    taken = []
    for i, ent in enumerate(spec.entities):
        if ent.span is None or ent.span[0] == ent.span[1]:
            continue
        for j, (s, t) in taken:
            if ent.span[0] < t and s < ent.span[1]:
                raise LayoutInvariantError(
                    f"span of entities[{i}] overlaps span of entities[{j}]",
                    f"$.entities[{i}].span",
                )
        taken.append((i, ent.span))


_TOP_FIELDS = {"T", "H", "W", "text_len", "entities"}
_ENTITY_FIELDS = {"kind", "group", "span"}


def parse_spec(text: str) -> LayoutSpec:
    """Parse and validate a JSON layout document.

    Raises :class:`LayoutSyntaxError` for malformed JSON,
    :class:`LayoutSchemaError` for missing/extra/ill-typed fields and
    :class:`LayoutInvariantError` for structurally invalid layouts.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise LayoutSyntaxError(f"not valid JSON: {exc.msg}", f"$ (line {exc.lineno})") from exc
    except (RecursionError, ValueError) as exc:  # nested too deeply, or an integer too long
        raise LayoutSyntaxError(f"not valid JSON: {exc}") from exc

    if not isinstance(doc, dict):
        raise LayoutSchemaError("document root must be an object", "$")
    unknown = set(doc) - _TOP_FIELDS
    if unknown:
        raise LayoutSchemaError(f"unknown field {sorted(unknown)[0]!r}", f"$.{sorted(unknown)[0]}")
    for name in ("T", "H", "W", "text_len"):
        if name not in doc:
            raise LayoutSchemaError(f"missing required field {name!r}", f"$.{name}")
        if not isinstance(doc[name], int) or isinstance(doc[name], bool):
            raise LayoutSchemaError(f"field {name!r} must be an integer", f"$.{name}")
    if "entities" not in doc:
        raise LayoutSchemaError("missing required field 'entities'", "$.entities")
    if not isinstance(doc["entities"], list):
        raise LayoutSchemaError("field 'entities' must be an array", "$.entities")

    entities = []
    for i, node in enumerate(doc["entities"]):
        path = f"$.entities[{i}]"
        if not isinstance(node, dict):
            raise LayoutSchemaError("entity must be an object", path)
        unknown = set(node) - _ENTITY_FIELDS
        if unknown:
            raise LayoutSchemaError(
                f"unknown field {sorted(unknown)[0]!r}", f"{path}.{sorted(unknown)[0]}"
            )
        kind = node.get("kind")
        if kind not in KINDS:
            raise LayoutSchemaError(
                f"kind must be one of {'|'.join(KINDS)}, got {kind!r}", f"{path}.kind"
            )
        group = node.get("group")
        if group is not None and (not isinstance(group, int) or isinstance(group, bool)):
            raise LayoutSchemaError("group must be an integer", f"{path}.group")
        span = node.get("span")
        if span is not None:
            ok = (
                isinstance(span, list)
                and len(span) == 2
                and all(isinstance(v, int) and not isinstance(v, bool) for v in span)
            )
            if not ok:
                raise LayoutSchemaError("span must be [start, end] of two integers", f"{path}.span")
            span = (span[0], span[1])
        entities.append(Entity(kind=kind, group=group, span=span))

    return LayoutSpec(
        T=doc["T"], H=doc["H"], W=doc["W"], entities=tuple(entities), text_len=doc["text_len"]
    )


def to_json(spec: LayoutSpec) -> str:
    """Serialize back to the document format accepted by :func:`parse_spec`."""
    entities = []
    for ent in spec.entities:
        node: dict = {"kind": ent.kind}
        if ent.group is not None:
            node["group"] = ent.group
        if ent.span is not None:
            node["span"] = [ent.span[0], ent.span[1]]
        entities.append(node)
    doc = {"T": spec.T, "H": spec.H, "W": spec.W, "text_len": spec.text_len, "entities": entities}
    return json.dumps(doc, indent=2) + "\n"
