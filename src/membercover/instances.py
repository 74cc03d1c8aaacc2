"""Instance documents: parsing, canonical serialization, and generation.

Instances are JSON with exact rational coordinates: integers, or strings
"num/den" or a bare integer as `str(Fraction)` writes them, each read by
`geometry.frac`; floats and every other string are rejected, so a document
always round-trips to the same rationals.  Range ids follow file order.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction

from .geometry import Halfplane, Point, UnitSquare, frac

KIND_SQUARES = "squares"
KIND_HALFPLANES = "halfplanes"

GENERATOR_RESOLUTION = 64     # coordinates land on the 1/64 grid
GENERATOR_NORMAL_BOUND = 32   # |a|, |b| bound for generated halfplanes


class InstanceParseError(ValueError):
    def __init__(self, message: str, *, field_name: str | None = None, line: int | None = None):
        self.field_name = field_name
        self.line = line
        where = []
        if field_name:
            where.append(f"field {field_name}")
        if line is not None:
            where.append(f"line {line}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(message + suffix)


@dataclass(frozen=True)
class InstanceDoc:
    kind: str
    s: tuple[Point, ...]
    sprime: tuple[Point, ...]
    ranges: tuple
    seed: int | None = None

    @property
    def n_points(self) -> int:
        return len(self.s)

    @property
    def n_ranges(self) -> int:
        return len(self.ranges)

    def digest(self) -> str:
        return hashlib.sha256(serialize_instance(self).encode()).hexdigest()


def _coord(value, name: str, idx: int) -> Fraction:
    """`value` read by `frac`; the entry `name[idx]` is named on error."""
    try:
        return frac(value)
    except ValueError as exc:
        raise InstanceParseError(str(exc), field_name=f"{name}[{idx}]") from None


def _point(pair, name: str, idx: int) -> Point:
    if not isinstance(pair, list) or len(pair) != 2:
        raise InstanceParseError(f"entry {idx} is not an [x, y] pair", field_name=name)
    return Point(_coord(pair[0], name, idx), _coord(pair[1], name, idx))


def _point_list(raw, name: str) -> tuple[Point, ...]:
    if not isinstance(raw, list):
        raise InstanceParseError("expected a list of [x, y] pairs", field_name=name)
    return tuple([_point(pair, name, idx) for idx, pair in enumerate(raw)])


def read_json(text: str | bytes, what: str):
    """`json.loads(text)`; any failure is an InstanceParseError about `what`."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceParseError(f"{what}: {exc.msg}", line=exc.lineno) from None
    # bytes that are not UTF-8, an int past the digit limit, deep nesting
    except (ValueError, RecursionError) as exc:
        raise InstanceParseError(f"{what}: {exc}") from None


def parse_instance(text: str | bytes) -> InstanceDoc:
    raw = read_json(text, "invalid JSON")
    if not isinstance(raw, dict):
        raise InstanceParseError("top level must be an object")
    kind = raw.get("kind")
    if kind not in (KIND_SQUARES, KIND_HALFPLANES):
        raise InstanceParseError(
            f"kind must be {KIND_SQUARES!r} or {KIND_HALFPLANES!r}, got {kind!r}",
            field_name="kind",
        )
    s = _point_list(raw.get("S", []), "S")
    sprime = _point_list(raw.get("Sprime", []), "Sprime")
    ranges_raw = raw.get("ranges", [])
    if not isinstance(ranges_raw, list):
        raise InstanceParseError("expected a list", field_name="ranges")
    ranges: list = []
    for idx, entry in enumerate(ranges_raw):
        if kind == KIND_SQUARES:  # the top-right corner
            ranges.append(UnitSquare(idx, _point(entry, "ranges", idx)))
            continue
        if not isinstance(entry, list) or len(entry) != 3 or any(type(v) is not int for v in entry):
            raise InstanceParseError(
                f"halfplane {idx} must be an [a, b, c] integer triple", field_name="ranges"
            )
        # integers under the coordinates' digit rule
        a, b, c = [int(_coord(v, "ranges", idx)) for v in entry]
        if a == 0 and b == 0:
            raise InstanceParseError(f"halfplane {idx} has zero normal", field_name="ranges")
        ranges.append(Halfplane(idx, a, b, c))
    seed = raw.get("seed")
    if seed is not None and type(seed) is not int:  # no bools
        raise InstanceParseError("seed must be an integer", field_name="seed")
    return InstanceDoc(kind=kind, s=s, sprime=sprime, ranges=tuple(ranges), seed=seed)


def serialize_instance(doc: InstanceDoc) -> str:
    """Canonical single-line JSON; parse(serialize(d)) == d."""
    if doc.kind == KIND_SQUARES:
        ranges = [[str(q.tr.x), str(q.tr.y)] for q in doc.ranges]
    else:
        ranges = [[h.a, h.b, h.c] for h in doc.ranges]
    obj = {
        "kind": doc.kind,
        "S": [[str(p.x), str(p.y)] for p in doc.s],
        "Sprime": [[str(p.x), str(p.y)] for p in doc.sprime],
        "ranges": ranges,
    }
    if doc.seed is not None:
        obj["seed"] = doc.seed
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def generate(
    kind: str,
    n_points: int,
    n_ranges: int,
    extent: int = 4,
    seed: int = 0,
    n_prime: int | None = None,
) -> InstanceDoc:
    """Deterministic random instance on the 1/64 grid.

    The coarse resolution makes shared coordinates likely on purpose, so
    generated instances keep exercising the closed-boundary semantics.
    """
    if n_points < 0 or n_ranges < 0 or extent <= 0:
        raise ValueError("counts must be nonnegative and extent positive")
    if n_prime is None:
        n_prime = n_points
    rng = random.Random(seed)
    res = GENERATOR_RESOLUTION

    def grid_point(lo: int, hi: int) -> Point:
        return Point(
            Fraction(rng.randint(lo * res, hi * res), res),
            Fraction(rng.randint(lo * res, hi * res), res),
        )

    s = tuple([grid_point(0, extent) for _ in range(n_points)])
    sprime = tuple([grid_point(0, extent) for _ in range(n_prime)])
    ranges: list = []
    if kind == KIND_SQUARES:
        for idx in range(n_ranges):
            ranges.append(UnitSquare(idx, grid_point(0, extent + 1)))
    elif kind == KIND_HALFPLANES:
        corners = [(0, 0), (extent, 0), (0, extent), (extent, extent)]
        for idx in range(n_ranges):
            a = b = 0
            while a == 0 and b == 0:
                a = rng.randint(-GENERATOR_NORMAL_BOUND, GENERATOR_NORMAL_BOUND)
                b = rng.randint(-GENERATOR_NORMAL_BOUND, GENERATOR_NORMAL_BOUND)
            values = [a * cx + b * cy for cx, cy in corners]
            # line a*x + b*y + c = 0 crosses the extent box
            c = -rng.randint(min(values), max(values))
            ranges.append(Halfplane(idx, a, b, c))
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return InstanceDoc(kind=kind, s=s, sprime=sprime, ranges=tuple(ranges), seed=seed)
