"""Immutable planar metric-graph model.

A graph is described by a rotation system: every vertex carries the cyclic
clockwise order of its incident edges.  A directed edge (dart) is an int:
the i-th edge of ``g.edges`` (the sorted ids) has darts 2i and 2i+1, and
the odd one has the edge's larger end as its head.  So the twin of dart
``d`` is ``d ^ 1``, its edge is ``g.edges[d >> 1]``, its head is
``g.dart_head[d]``, and int order is (edge id, head) order.  Each of these
costs O(1); the dart of an edge into a given end, ``g.dart(e, v)``,
bisects ``g.edges``, O(log |E|), and ``g.rotation_darts[v]`` lists the
darts into ``v`` in rotation order.  Faces are traced with the fixed
convention

    successor of h  =  rotational successor of twin(h) at the head of h,

so each face is the orbit of a dart under that map and every dart lies on
exactly one face.  Truncations of infinite graphs mark the vertices with
incomplete stars as *frontier* vertices; any face whose cycle touches the
frontier is *indeterminate* unless the input explicitly declares it
unbounded.  Frontier vertices are assumed to lie on the outer rim of the
truncation (ball-like truncations); the generators in :mod:`isotess.families`
guarantee this.

``build_graph`` does a fixed number of C-level passes over the record plus
one Python step per rotation entry (the dart pass and the face walk) and
per tile.  Ids, rotation entries and frontier lists are type-checked in
bulk; the per-entry checks run only to name the first bad entry.  The
rotation check is folded into the dart pass, which fills a flat
face-successor list indexed by dart: every rotation is a permutation of
its vertex's incident edges exactly when each entry is an edge at that
vertex and the entries, 2|E| of them, fill all 2|E| slots.  Incident sets
are built only when that fails, to name the first bad vertex.  The faces
are walked over that list, recording each dart's tile, and each tile is
built by mapping its cycle over per-dart edge and head lists; a bounded
tile's perimeter is summed over integer length parts, one Fraction per
distinct sequence of boundary lengths in the order of the tile's edge set
(the :mod:`isotess.curvature` memos are keyed on that sharing).
Tiles are named tuples (88 bytes each).

Closure and classification of a selection need the bounded faces of its
interior graph H; :func:`_bounded_faces` decides them by Euler's count
and says when that floods the whole graph.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from operator import eq
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import (
    Disconnected,
    DisconnectedSelection,
    FrontierContact,
    IndeterminateFaces,
    InconsistentFrontier,
    InputFormatError,
    MalformedRotation,
    NonPositiveLength,
    NonSimple,
)
from .rational import INF, Extended, parse_rational, scaled_sum

BOUNDED = "bounded"
UNBOUNDED = "unbounded"
INDETERMINATE = "indeterminate"


class Tile(NamedTuple):
    """One face of the embedding.

    ``cycle`` is the dart orbit, int darts starting at the smallest;
    ``edges`` the distinct edge ids on the boundary; ``degree`` counts
    distinct edges.  ``perimeter`` is the exact sum of the boundary
    lengths for bounded tiles, INF for unbounded ones and None when the
    face touches the frontier.
    """

    index: int
    cycle: tuple[int, ...]
    edges: frozenset[int]
    degree: int
    status: str
    perimeter: Extended | None


@dataclass(frozen=True)
class MetricGraph:
    """Rotation system, edge lengths and traced tiles of one graph.

    ``vertices`` and ``edges`` are the sorted ids; ``true_degree`` is None
    for frontier vertices whose degree in the full graph is unknown.
    ``dart_tile`` and ``dart_head`` are indexed by dart (module
    docstring); ``rotation_darts[v]`` lists the darts into ``v`` in the
    order of ``rotation[v]``.
    """

    rotation: Mapping[int, tuple[int, ...]]
    edge_ends: Mapping[int, tuple[int, int]]
    frontier_vertices: frozenset[int]
    true_degree: Mapping[int, int | None]
    length: Mapping[int, Fraction]
    tiles: tuple[Tile, ...]
    dart_tile: tuple[int, ...]
    dart_head: tuple[int, ...]
    rotation_darts: Mapping[int, tuple[int, ...]]
    vertices: tuple[int, ...]
    edges: tuple[int, ...]

    @property
    def is_frontier_free(self) -> bool:
        return not self.frontier_vertices

    def degree(self, v: int) -> int:
        return len(self.rotation[v])

    def other_end(self, edge: int, v: int) -> int:
        a, b = self.edge_ends[edge]
        if v == a:
            return b
        if v == b:
            return a
        raise KeyError(f"vertex {v} not on edge {edge}")

    def dart(self, edge: int, head: int) -> int:
        """The dart of ``edge`` into ``head``, found by bisection on ``edges``;
        KeyError when ``head`` is not an end of ``edge``."""
        return _dart(self.edges, self.dart_head, edge, head)

    def darts_of(self, edge: int) -> tuple[int, int]:
        """The two darts of ``edge``, into its smaller end first."""
        d = self.dart(edge, self.edge_ends[edge][0]) & ~1
        return d, d | 1

    def frontier_free_edges(self) -> list[int]:
        """Edges with both endpoints outside the frontier."""
        fr = self.frontier_vertices
        return [e for e in self.edges
                if self.edge_ends[e][0] not in fr and self.edge_ends[e][1] not in fr]

    def frontier_free_vertices(self) -> list[int]:
        fr = self.frontier_vertices
        return [v for v in self.vertices if v not in fr]

    @cached_property
    def has_open_tile(self) -> bool:
        """Whether some tile is unbounded or indeterminate."""
        return any(t.status != BOUNDED for t in self.tiles)

    @cached_property
    def length_ints(self) -> tuple[int | None, dict]:
        """The lengths as ints, for measures: (L, {edge: |e| L}) when L, the
        lcm of every length denominator, has at most 64 bits, and a measure
        is one int sum over L; else (None, {edge: (numerator, denominator)}),
        and a measure is a :func:`~isotess.rational.scaled_sum` over the lcm
        of its own edges' denominators.

        Built on first use.  With L at most a word, the table holds E ints
        of a word times a numerator, and normalising a measure over L costs
        a gcd with one word.  A longer L grows with the number of distinct
        denominators, up to the sum of their digits, while a selection's
        own lcm can stay far shorter; the lcm is taken one denominator at a
        time and given up at the first one past 64 bits.
        """
        scale, length = 1, self.length
        for d in {ell.denominator for ell in length.values()}:
            scale = math.lcm(scale, d)
            if scale.bit_length() > 64:
                return None, {e: (ell.numerator, ell.denominator) for e, ell in length.items()}
        return scale, {e: ell.numerator * (scale // ell.denominator) for e, ell in length.items()}


@dataclass(frozen=True, slots=True)
class SubgraphSelection:
    """A connected edge subset: the vertices whose whole star it holds, the
    selection degrees of the others summed, and its total length.  Readers
    derive other sets (boundary vertices, interior edges) from these."""

    edges: frozenset[int]
    interior_vertices: frozenset[int]
    boundary_degree: int
    measure: Fraction

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.boundary_degree) / self.measure


@dataclass(frozen=True)
class Violation:
    condition: str
    witness: str
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    mode: str
    violations: tuple[Violation, ...]

    @property
    def valid(self) -> bool:
        return not self.violations


# ---------------------------------------------------------------------------
# face tracing
# ---------------------------------------------------------------------------

def _dart(edges: Sequence[int], head: Sequence[int], edge: int, v: int) -> int:
    """The dart of ``edge`` into ``v``, given the sorted edge ids and each
    dart's head; KeyError when ``v`` is not an end of ``edge``."""
    i = bisect_left(edges, edge)
    if i < len(edges) and edges[i] == edge:
        d = 2 * i
        if head[d] == v:
            return d
        if head[d + 1] == v:
            return d + 1
    raise KeyError(f"vertex {v} not on edge {edge}")


def _darts(rotation: Mapping[int, Sequence[int]],
           edge_ends: Mapping[int, tuple[int, int]], edges: Sequence[int]
           ) -> tuple[list[int], dict[int, tuple[int, ...]], list[int]] | None:
    """Each dart's head, the darts into each vertex in rotation order and
    the face-successor list, indexed by dart; None unless every rotation
    is a permutation of its vertex's incident edges.

    ``edges`` are the sorted ids of ``edge_ends``.  The successor of the
    dart into ``v`` along a rotation entry is the twin of the dart into
    ``v`` along the next entry.  Every rotation is a permutation of its
    vertex's incident edges exactly when each entry is an edge at that
    vertex and the entries, 2|E| of them, fill every slot of the list:
    the pass that fills it checks the first, the count and a scan for an
    unfilled slot the second.
    """
    head = list(chain.from_iterable((a, b) if a < b else (b, a)
                                    for a, b in map(edge_ends.__getitem__, edges)))
    if sum(map(len, rotation.values())) != len(head):
        return None
    first = dict(zip(edges, range(0, len(head), 2)))
    succ = [-1] * len(head)
    into: dict[int, tuple[int, ...]] = {}
    try:
        for v, rot in rotation.items():
            ds = [d if head[d] == v else d + 1 if head[d + 1] == v else -1
                  for d in map(first.__getitem__, rot)]
            if -1 in ds:
                return None
            into[v] = tuple(ds)
            prev = ds[-1] if ds else None
            for d in ds:
                succ[prev] = d ^ 1
                prev = d
    except KeyError:
        return None
    return None if -1 in succ else (head, into, succ)


def _orbits(succ: list[int]) -> tuple[list[list[int]], list[int]]:
    """The orbits of the successor list ``succ`` and each dart's orbit index.

    Darts are tried as starts in order, so each orbit starts at its
    smallest dart and the orbits come in the order of those starts.
    """
    faces: list[list[int]] = []
    index = [-1] * len(succ)
    for start in range(len(succ)):
        if index[start] < 0:
            idx = len(faces)
            cycle = [start]
            index[start] = idx
            d = succ[start]
            while d != start:
                cycle.append(d)
                index[d] = idx
                d = succ[d]
            faces.append(cycle)
    return faces, index


def trace_faces(rotation: Mapping[int, Sequence[int]],
                edge_ends: Mapping[int, tuple[int, int]]) -> list[list[tuple[int, int]]]:
    """Partition all darts into face cycles of ``(edge id, head)`` pairs.

    Convention: the successor of the dart along ``e`` into ``v`` leaves
    ``v`` along the clockwise successor of ``e`` in the rotation at ``v``.
    Each cycle starts at its smallest dart by (edge id, head), and the
    cycles come in the order of those starts.  The cycles are traced over
    int darts, as in ``build_graph``, and converted as they are returned.
    MalformedRotation unless every rotation is a permutation of its
    vertex's incident edges.
    """
    edges = sorted(edge_ends)
    darts = _darts(rotation, edge_ends, edges)
    if darts is None:
        raise MalformedRotation("a rotation is not a permutation of its vertex's edges")
    head, _, succ = darts
    return [[(edges[d >> 1], head[d]) for d in cycle] for cycle in _orbits(succ)[0]]


def _reach(start: int, rotation_darts: Mapping[int, Iterable[int]],
           head: Sequence[int], inside: frozenset[int] | None = None) -> set[int]:
    """The vertices reachable from ``start`` along the darts in ``rotation_darts``.

    ``rotation_darts`` maps a vertex to darts into it and ``head`` a dart
    to its head, so a dart's twin leads to the neighbour; when ``inside``
    is given, only its vertices are entered.
    """
    seen = {start}
    stack = [start]
    while stack:
        for d in rotation_darts[stack.pop()]:
            w = head[d ^ 1]
            if w not in seen and (inside is None or w in inside):
                seen.add(w)
                stack.append(w)
    return seen


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def _int(x) -> int:
    """A JSON integer as is; anything else (float, bool, string) is a TypeError."""
    if type(x) is not int:
        raise TypeError(f"expected an integer, got {x!r}")
    return x


def _ints(xs: list) -> None:
    """Raise the TypeError of :func:`_int` for the first entry of ``xs`` that is not an int."""
    if not set(map(type, xs)) <= {int}:
        for x in xs:
            _int(x)


def _vertex_named(key, rotation: Mapping[int, Sequence[int]]) -> int:
    """The vertex ``v`` with ``str(v) == key``; InputFormatError if there is none."""
    try:
        v = int(key)
    except (TypeError, ValueError):
        v = None
    if v is None or str(v) != key or v not in rotation:
        raise InputFormatError(f"true_degree key {key!r} names no vertex")
    return v


def _check_unique(ids: list, what: str) -> None:
    """InputFormatError naming the first repeated id, if any."""
    seen: set[int] = set()
    for x in ids:
        if x in seen:
            raise InputFormatError(f"duplicate {what} id {x}")
        seen.add(x)


def _check_edges(eids: list[int], ends: list[tuple],
                 rotation: Mapping[int, Sequence[int]]) -> None:
    """Raise for the first edge, in record order, that is not a simple edge
    between two vertices: ends that are not a pair (ValueError), a loop, an
    unknown end or an edge parallel to an earlier one."""
    pairs: set[tuple[int, int]] = set()
    for eid, (a, b) in zip(eids, ends):
        if a == b:
            raise NonSimple(f"edge {eid} is a loop at vertex {a}")
        if a not in rotation or b not in rotation:
            raise InputFormatError(f"edge {eid} references unknown vertex")
        pair = (min(a, b), max(a, b))
        if pair in pairs:
            raise NonSimple(f"parallel edge {eid} between {a} and {b}")
        pairs.add(pair)


def _check_rotations(rotation: Mapping[int, Sequence[int]],
                     edge_ends: Mapping[int, tuple[int, int]]) -> None:
    """Raise for the first vertex whose rotation is not a permutation of its
    incident edges, or that has no edge."""
    incident: dict[int, set[int]] = {v: set() for v in rotation}
    for eid, (a, b) in edge_ends.items():
        incident[a].add(eid)
        incident[b].add(eid)
    for v, rot in rotation.items():
        if len(set(rot)) != len(rot):
            raise MalformedRotation(f"vertex {v}: repeated edge in rotation")
        if set(rot) != incident[v]:
            raise MalformedRotation(
                f"vertex {v}: rotation {sorted(rot)} != incident {sorted(incident[v])}")
        if not rot:
            raise MalformedRotation(f"vertex {v} is isolated")


def build_graph(record: Mapping) -> MetricGraph:
    """Validate an interchange record and construct the metric graph.

    See the module docstring of :mod:`isotess.interchange` for the record
    layout.  Construction is deterministic given the record; a missing
    field or a value of the wrong shape raises InputFormatError.
    """
    # one parse per distinct length string; keyed on str only, since
    # True == 1 == 1.0 would let a bool or float through a memo hit
    parsed: dict[str, tuple[Fraction, tuple[int, int]]] = {}
    length: dict[int, Fraction] = {}
    parts: dict[int, tuple[int, int]] = {}
    try:
        items = record["vertices"]
        vids = [item["id"] for item in items]
        _ints(vids)
        rots = [tuple(item["rotation"]) for item in items]
        _ints(list(chain.from_iterable(rots)))
        rotation = dict(zip(vids, rots))
        if len(rotation) != len(vids):
            _check_unique(vids, "vertex")

        items = record["edges"]
        eids = [item["id"] for item in items]
        _ints(eids)
        ends = [tuple(item["ends"]) for item in items]
        flat = list(chain.from_iterable(ends))
        _ints(flat)
        if len(set(eids)) != len(eids):
            _check_unique(eids, "edge")
        if not (set(map(len, ends)) <= {2}
                and not any(map(eq, flat[::2], flat[1::2]))
                and rotation.keys() >= set(flat)
                and len({(a, b) if a < b else (b, a) for a, b in ends}) == len(ends)):
            _check_edges(eids, ends, rotation)
        edge_ends: dict[int, tuple[int, int]] = dict(zip(eids, ends))

        for eid, item in zip(eids, items):
            raw = item["length"]
            hit = parsed.get(raw) if type(raw) is str else None
            if hit is None:
                ell = parse_rational(raw)
                if ell <= 0:
                    raise NonPositiveLength(f"edge {eid} has length {ell}")
                hit = ell, (ell.numerator, ell.denominator)
                if type(raw) is str:
                    parsed[raw] = hit
            length[eid], parts[eid] = hit

        frontier_ids = list(record.get("frontier_vertices", ()))
        _ints(frontier_ids)
        frontier = frozenset(frontier_ids)
        declared: dict[int, int] = {}
        for key, td in record.get("true_degree", {}).items():
            v = _vertex_named(key, rotation)
            declared[v] = _int(td)
        face_reps = [(_int(e), _int(h)) for e, h in record.get("unbounded_face_reps", ())]
    except (AttributeError, IndexError, KeyError, TypeError, ValueError,
            ZeroDivisionError) as exc:
        raise InputFormatError(f"malformed record: {exc!r}") from exc
    if not rotation:
        raise InputFormatError("record has no vertices")

    # the rotation check is folded into the face-successor list
    edges = sorted(edge_ends)
    darts = _darts(rotation, edge_ends, edges)
    if darts is None or not all(rots):
        _check_rotations(rotation, edge_ends)
    head, into, succ = darts

    verts = sorted(rotation)
    unreached = len(verts) - len(_reach(verts[0], into, head))
    if unreached:
        raise Disconnected(f"{unreached} vertices unreachable")

    if not frontier <= rotation.keys():
        raise InputFormatError("frontier lists unknown vertex")
    true_degree: dict[int, int | None] = dict(zip(rotation, map(len, rots)))
    true_degree.update(dict.fromkeys(frontier))
    for v in filter(declared.__contains__, rotation):
        visible = len(rotation[v])
        td = declared[v]
        if td < 1:
            raise InconsistentFrontier(f"vertex {v}: true degree {td} < 1")
        if v in frontier:
            if td < visible:
                raise InconsistentFrontier(
                    f"frontier vertex {v}: true degree {td} < visible {visible}")
        elif td != visible:
            raise InconsistentFrontier(
                f"vertex {v}: true degree {td} != visible degree {visible}")
        true_degree[v] = td

    cycles, dart_tile = _orbits(succ)

    unbounded_faces: set[int] = set()
    for eid, h in face_reps:
        try:
            unbounded_faces.add(dart_tile[_dart(edges, head, eid, h)])
        except KeyError:
            raise InputFormatError(f"bad unbounded face rep {[eid, h]!r}") from None

    # one Fraction per distinct sequence of boundary lengths, shared by its tiles
    perimeters: dict[tuple[tuple[int, int], ...], Fraction] = {}
    tiles = []
    edge_at = list(chain.from_iterable(zip(edges, edges))).__getitem__
    head_at = head.__getitem__
    for idx, cycle in enumerate(cycles):
        tile_edges = frozenset(map(edge_at, cycle))
        touches = bool(frontier) and not frontier.isdisjoint(map(head_at, cycle))
        if idx in unbounded_faces:
            status: str = UNBOUNDED
            perimeter: Extended | None = INF
        elif touches:
            status = INDETERMINATE
            perimeter = None
        else:
            status = BOUNDED
            key = tuple(map(parts.__getitem__, tile_edges))
            perimeter = perimeters.get(key)
            if perimeter is None:
                perimeter = perimeters[key] = Fraction(*scaled_sum(key))
        tiles.append(Tile(idx, tuple(cycle), tile_edges, len(tile_edges), status,
                          perimeter))

    return MetricGraph(rotation=rotation, edge_ends=edge_ends,
                       frontier_vertices=frontier, true_degree=true_degree,
                       length=length, tiles=tuple(tiles), dart_tile=tuple(dart_tile),
                       dart_head=tuple(head), rotation_darts=into,
                       vertices=tuple(verts), edges=tuple(edges))


# ---------------------------------------------------------------------------
# tessellation validation
# ---------------------------------------------------------------------------

def validate_tessellation(g: MetricGraph, mode: str = "finite") -> ValidationReport:
    """Check the tessellation axioms; violations are report entries.

    mode="finite": the graph is taken as a complete finite plane graph and
    conditions (ii), (iv), (v) are checked everywhere (the half-plane
    condition on unbounded faces is exempted).  Exactly one face must be
    declared unbounded, the outer one.

    mode="truncation": the same conditions restricted to vertices, edges
    and tiles that carry no frontier taint.
    """
    if mode not in ("finite", "truncation"):
        raise ValueError(f"unknown mode {mode!r}")
    violations: list[Violation] = []
    fr = g.frontier_vertices

    if mode == "finite":
        if fr:
            violations.append(Violation(
                "finite", f"vertices {sorted(fr)[:4]}",
                "frontier vertices present in finite mode"))
        n_unbounded = sum(1 for t in g.tiles if t.status == UNBOUNDED)
        if n_unbounded != 1:
            violations.append(Violation(
                "outer-face", f"{n_unbounded} unbounded marks",
                "a finite plane graph has exactly one unbounded face"))

    # (v): vertex degrees >= 3
    for v in g.vertices:
        if mode == "truncation" and v in fr:
            continue
        if g.degree(v) < 3:
            violations.append(Violation(
                "v", f"vertex {v}", f"degree {g.degree(v)} < 3"))

    # (ii): bounded tiles are simple cycles of >= 3 edges
    for t in g.tiles:
        if t.status != BOUNDED:
            continue
        heads = list(map(g.dart_head.__getitem__, t.cycle))
        if len(t.cycle) < 3 or len(set(heads)) != len(heads) or len(t.edges) != len(t.cycle):
            violations.append(Violation(
                "ii", f"tile {t.index}",
                f"bounded face cycle {heads} is not a simple >=3 cycle"))

    # (iv): every edge borders two different tiles
    dart_tile = g.dart_tile
    for e, t1, t2 in zip(g.edges, dart_tile[::2], dart_tile[1::2]):
        if mode == "truncation":
            s1, s2 = g.tiles[t1].status, g.tiles[t2].status
            if s1 != BOUNDED or s2 != BOUNDED:
                continue
        if t1 == t2:
            violations.append(Violation(
                "iv", f"edge {e}", "both sides lie on the same face"))

    return ValidationReport(mode=mode, violations=tuple(violations))


# ---------------------------------------------------------------------------
# subgraph bookkeeping
# ---------------------------------------------------------------------------

def subgraph_stats(g: MetricGraph, edge_ids: Iterable[int]) -> SubgraphSelection:
    """Interior vertices, boundary degree and measure of a connected edge subset.

    Ids are taken as given: one that is not an edge of ``g`` is a KeyError.
    Cost O(|S|) for a selection of |S| edges, plus one normalisation: the
    measure is summed over ``g.length_ints`` and built as one Fraction.
    """
    edges = frozenset(edge_ids)
    if not edges:
        raise DisconnectedSelection("empty selection")
    ends = g.edge_ends
    if not ends.keys() >= edges:
        raise KeyError(f"unknown edge {next(e for e in edges if e not in ends)}")

    # the neighbours of each vertex along selected edges, one per edge:
    # their number is its selection degree, and the walk needs no edge lookup
    adj: dict[int, list[int]] = {}
    for e in edges:
        a, b = ends[e]
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    start = next(iter(adj))
    seen = {start}
    stack = [start]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != len(adj):
        raise DisconnectedSelection("selection does not induce a connected subgraph")

    true_degree = g.true_degree
    interior = []
    boundary_degree = 0
    for v, nbrs in adj.items():
        d = len(nbrs)
        td = true_degree[v]
        if td is None:
            raise FrontierContact(f"vertex {v} has unknown true degree")
        if d > td:
            raise InconsistentFrontier(f"vertex {v}: selection degree {d} > true degree {td}")
        if d < td:
            boundary_degree += d
        else:
            interior.append(v)
    scale, ints = g.length_ints
    measure = (Fraction(*scaled_sum([ints[e] for e in edges])) if scale is None
               else Fraction(sum(map(ints.__getitem__, edges)), scale))
    return SubgraphSelection(edges, frozenset(interior), boundary_degree, measure)


def _flood_faces(g: MetricGraph, inner: frozenset[int]):
    """:func:`_bounded_faces` by flooding every tile of the graph, O(|G|).

    Tiles lie in one face of H when crossings of edges outside H join them.
    """
    head, tiles, dart_tile = g.dart_head, g.tiles, g.dart_tile
    seen = [False] * len(tiles)
    groups: list[list[int]] = []
    indeterminate = 0
    for root in range(len(tiles)):
        if seen[root]:
            continue
        seen[root] = True
        group = [root]
        for t in group:
            for d in tiles[t].cycle:
                if head[d] not in inner or head[d ^ 1] not in inner:
                    u = dart_tile[d ^ 1]
                    if not seen[u]:
                        seen[u] = True
                        group.append(u)
        statuses = {tiles[t].status for t in group}
        if statuses == {BOUNDED}:
            groups.append(group)
        indeterminate += INDETERMINATE in statuses
    return groups, indeterminate > 1


def _bounded_faces(g: MetricGraph, interior_vertices: frozenset[int]):
    """Bounded faces of the interior graph H, as groups of ambient tiles.

    H is the graph induced on ``interior_vertices``; every edge of H is
    selected, since an interior vertex has its whole star selected.  The
    tiles inside one face of H are those joined by crossing edges outside
    H.  Returns ``(groups, ambiguous)``: the tile-index lists of the faces
    with only bounded tiles, in the order of their smallest tiles, and
    whether more than one face touches indeterminate data (so the outer
    face cannot be identified).

    Cost: O(|H|) when every bounded face of H is a single tile, which holds
    on the family balls, and O(|G|) otherwise.  Both short answers count
    faces, and run only when H is connected and the graph has a tile that
    is not bounded.  By Euler's formula a connected H has
    |E_H| - |V_H| + 2 - 2g faces for some genus g >= 0.  A tree, with
    2|V_H| - 2 darts, has one face, which holds every tile and so is not
    bounded: the answer is no group, whether or not H is all of G, and no
    tile is read.  Otherwise a tile whose darts all lie on H is a face of
    H by itself.  When such tiles number |E_H| - |V_H| + 1 and are all
    bounded, g = 0 and H has exactly one other face.  Every other tile
    lies in it, so that face is not bounded, and the answer is those
    tiles.  Every other case (H empty or disconnected, no tile that is not
    bounded, a count that does not match) floods every tile
    (:func:`_flood_faces`).
    """
    inner = interior_vertices
    head, tiles, into = g.dart_head, g.tiles, g.rotation_darts
    if inner and g.has_open_tile \
            and len(_reach(next(iter(inner)), into, head, inner)) == len(inner):
        darts = [d for v in inner for d in into[v] if head[d ^ 1] in inner]
        if len(darts) == 2 * len(inner) - 2:
            return [], False
        counts: dict[int, int] = {}
        for t in map(g.dart_tile.__getitem__, darts):
            counts[t] = counts.get(t, 0) + 1
        singles = sorted(t for t, n in counts.items() if n == len(tiles[t].cycle))
        if 2 * len(singles) == len(darts) - 2 * len(inner) + 2 \
                and all(tiles[t].status == BOUNDED for t in singles):
            return [[t] for t in singles], False
    return _flood_faces(g, inner)


def classify_subgraph(g: MetricGraph, sel: SubgraphSelection) -> tuple[bool, bool]:
    """(star_like, complete) flags for a selection made by subgraph_stats.

    star_like: the edge set is the union of the full stars of some
    connected vertex set.  complete: every bounded face of the interior
    graph consists of exactly one ambient tile.
    """
    # The full-star vertices are the interior ones.  The selection is
    # star-like iff they are connected and their stars cover it: a
    # component C whose stars cover it is all of them, since a full-star
    # vertex outside C has its star in stars(C) and so a neighbour in C.
    full = sel.interior_vertices
    star_like = False
    if full and set().union(*(g.rotation[v] for v in full)) == sel.edges:
        star_like = len(_reach(next(iter(full)), g.rotation_darts, g.dart_head, full)) \
            == len(full)

    groups, ambiguous = _bounded_faces(g, full)
    if ambiguous:
        raise IndeterminateFaces(
            "interior-graph face structure touches the frontier in more than one region")
    return star_like, all(len(ts) == 1 for ts in groups)


def complete_closure(g: MetricGraph, sel: SubgraphSelection) -> SubgraphSelection:
    """Close a star-like selection by absorbing bounded interior-graph faces.

    Repeatedly adds the full stars of every vertex lying strictly inside a
    bounded face of the interior graph: the non-interior heads of the dart
    cycles of its tiles.  The result is star-like and complete, and its
    boundary degree never exceeds the input's.  Those faces hold only
    bounded tiles, and ``build_graph`` never marks a tile with a frontier
    vertex on its cycle bounded, so every added star is complete.  A
    selection with nothing to absorb is returned as it is, uncopied.
    """
    while True:
        groups, ambiguous = _bounded_faces(g, sel.interior_vertices)
        if ambiguous:
            raise FrontierContact("closure cannot resolve faces near the frontier")
        to_add = {v for ts in groups for t in ts
                  for v in map(g.dart_head.__getitem__, g.tiles[t].cycle)
                  if v not in sel.interior_vertices}
        if not to_add:
            return sel
        sel = subgraph_stats(g, sel.edges.union(*(g.rotation[v] for v in to_add)))
