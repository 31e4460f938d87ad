"""Immutable planar metric-graph model.

A graph is described by a rotation system: every vertex carries the cyclic
clockwise order of its incident edges.  Directed edges (darts) are pairs
``(edge_id, head_vertex)``; since graphs are simple this is unambiguous.
Faces are traced with the fixed convention

    successor of h  =  rotational successor of twin(h) at the head of h,

so each face is the orbit of a dart under that map and every dart lies on
exactly one face.  Truncations of infinite graphs mark the vertices with
incomplete stars as *frontier* vertices; any face whose cycle touches the
frontier is *indeterminate* unless the input explicitly declares it
unbounded.  Frontier vertices are assumed to lie on the outer rim of the
truncation (ball-like truncations); the generators in :mod:`isotess.families`
guarantee this.

``build_graph`` does a fixed number of C-level passes over the record plus
one Python step per rotation entry (the face-successor map and the face
walk) and per tile.  Ids, rotation entries and frontier lists are
type-checked in bulk; the per-entry checks run only to name the first bad
entry.  The rotation check is folded into the face-successor map: every
rotation is a permutation of its vertex's incident edges exactly when each
entry is an edge at that vertex and the map holds 2|E| distinct darts, one
per entry.  Incident sets are built only when that fails, to name the
first bad vertex.  The faces are walked by popping the map, which
records each dart's tile as it pops the dart, and each bounded tile's
perimeter is summed over integer length parts, one Fraction per distinct
multiset of boundary lengths.  Tiles have slots and no ``__dict__`` (88
bytes each, not 184).  On the four build-curvature benchmark inputs (2k
to 10k edges), each freshly parsed, one build of each takes 0.10 s in
all with the cyclic garbage collector paused, as the ``isotess``
commands run it, and 0.11 to 0.13 s with the collector on (minimum of 30
runs per input, Python 3.11.7, 2 shared CPUs).

Closure and classification of a selection need the bounded faces of its
interior graph H (``_bounded_faces``).  They cost O(|H|) when every bounded
face of H is a single tile, which holds for every call on the benchmark's
family balls: the tiles whose darts all lie on H are counted, and when
Euler's formula says H has exactly one other face, that face is the outer
one.  Otherwise every tile of the graph is flooded, O(|G|): when H is
empty or disconnected, when no tile of the graph is unbounded or
indeterminate, or when H encloses a face that is not a single tile.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from operator import eq, itemgetter
from typing import Iterable, Mapping, Sequence

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

Dart = tuple[int, int]  # (edge id, head vertex id)

BOUNDED = "bounded"
UNBOUNDED = "unbounded"
INDETERMINATE = "indeterminate"


@dataclass(frozen=True, slots=True)
class Tile:
    """One face of the embedding.

    ``cycle`` is the dart orbit; ``edges`` the distinct edge ids on the
    boundary; ``degree`` counts distinct edges.  ``perimeter`` is the exact
    sum of the boundary lengths for bounded tiles, INF for unbounded ones
    and None when the face touches the frontier.
    """

    index: int
    cycle: tuple[Dart, ...]
    edges: frozenset[int]
    degree: int
    status: str
    perimeter: Extended | None
    touches_frontier: bool


@dataclass(frozen=True)
class MetricGraph:
    """Rotation system, edge lengths and traced tiles of one graph.

    ``vertices`` and ``edges`` are the sorted ids; ``true_degree`` is None
    for frontier vertices whose degree in the full graph is unknown.
    """

    rotation: Mapping[int, tuple[int, ...]]
    edge_ends: Mapping[int, tuple[int, int]]
    frontier_vertices: frozenset[int]
    true_degree: Mapping[int, int | None]
    length: Mapping[int, Fraction]
    tiles: tuple[Tile, ...]
    dart_tile: Mapping[Dart, int]
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

    def darts_of(self, edge: int) -> tuple[Dart, Dart]:
        a, b = self.edge_ends[edge]
        return (edge, a), (edge, b)

    def tile_of(self, dart: Dart) -> Tile:
        return self.tiles[self.dart_tile[dart]]

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
    def length_parts(self) -> dict[int, tuple[int, int]]:
        """Each edge's length as (numerator, denominator) ints, read once per graph."""
        return {e: (ell.numerator, ell.denominator) for e, ell in self.length.items()}


@dataclass(frozen=True)
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

def _successors(rotation: Mapping[int, Sequence[int]],
                edge_ends: Mapping[int, tuple[int, int]]) -> dict[Dart, Dart] | None:
    """The face-successor map, dart -> dart; None unless it is a permutation.

    The successor of ``(e, v)`` leaves ``v`` along the entry after ``e`` in
    the rotation at ``v``.  Every rotation is a permutation of its vertex's
    incident edges exactly when each entry is an edge at that vertex and
    the map holds 2|E| distinct darts, one per entry: the pass that builds
    the map checks the first, its size the second.
    """
    succ: dict[Dart, Dart] = {}
    try:
        for v, rot in rotation.items():
            e = rot[-1] if rot else None
            for e2 in rot:
                a, b = edge_ends[e2]
                if v == a:
                    succ[(e, v)] = (e2, b)
                elif v == b:
                    succ[(e, v)] = (e2, a)
                else:
                    return None
                e = e2
    except KeyError:
        return None
    n = 2 * len(edge_ends)
    return succ if len(succ) == n == sum(map(len, rotation.values())) else None


def _orbits(succ: dict[Dart, Dart], edge_ends: Mapping[int, tuple[int, int]]
            ) -> tuple[list[list[Dart]], dict[Dart, int]]:
    """The orbits of the successor map ``succ``, which this empties, and the
    index of each dart's orbit.

    Darts are tried as starts by edge id, then head; an orbit is popped
    from ``succ`` dart by dart until it closes at its start, so each orbit
    starts at its smallest dart and the orbits come in the order of those
    starts.  Each dart's index is recorded as it is popped.
    """
    faces: list[list[Dart]] = []
    index: dict[Dart, int] = {}
    for e in sorted(edge_ends):
        a, b = edge_ends[e]
        for d in ((e, a), (e, b)) if a < b else ((e, b), (e, a)):
            if d in succ:
                idx = len(faces)
                cycle = [d]
                index[d] = idx
                nxt = succ.pop(d)
                while nxt != d:
                    cycle.append(nxt)
                    index[nxt] = idx
                    nxt = succ.pop(nxt)
                faces.append(cycle)
    return faces, index


def trace_faces(rotation: Mapping[int, Sequence[int]],
                edge_ends: Mapping[int, tuple[int, int]]) -> list[list[Dart]]:
    """Partition all darts into face cycles.

    Convention: the successor of dart ``h = (e, v)`` leaves ``v`` along the
    clockwise successor of ``e`` in the rotation at ``v``.  Each cycle starts
    at its smallest dart by (edge id, head), and the cycles come in the
    order of those starts.  MalformedRotation unless every rotation is a
    permutation of its vertex's incident edges.
    """
    succ = _successors(rotation, edge_ends)
    if succ is None:
        raise MalformedRotation("a rotation is not a permutation of its vertex's edges")
    return _orbits(succ, edge_ends)[0]


def _reach(start: int, rotation: Mapping[int, Iterable[int]],
           ends: Mapping[int, tuple[int, int]],
           inside: frozenset[int] | None = None) -> set[int]:
    """The vertices reachable from ``start`` along the edges listed in ``rotation``.

    ``rotation`` maps a vertex to edge ids at it and ``ends`` an edge id to
    its two ends; when ``inside`` is given, only its vertices are entered.
    """
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for e in rotation[v]:
            a, b = ends[e]
            w = b if a == v else a
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

    # the rotation check is folded into the face-successor map
    succ = _successors(rotation, edge_ends)
    if succ is None or not all(rots):
        _check_rotations(rotation, edge_ends)

    verts = sorted(rotation)
    unreached = len(verts) - len(_reach(verts[0], rotation, edge_ends))
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

    cycles, dart_tile = _orbits(succ, edge_ends)

    unbounded_faces: set[int] = set()
    for eid, head in face_reps:
        if eid not in edge_ends or head not in edge_ends[eid]:
            raise InputFormatError(f"bad unbounded face rep {[eid, head]!r}")
        unbounded_faces.add(dart_tile[(eid, head)])

    # one Fraction per distinct multiset of boundary lengths, shared by its tiles
    perimeters: dict[tuple[tuple[int, int], ...], Fraction] = {}
    tiles = []
    for idx, cycle in enumerate(cycles):
        edges = frozenset(map(itemgetter(0), cycle))
        touches = bool(frontier) and not frontier.isdisjoint(map(itemgetter(1), cycle))
        if idx in unbounded_faces:
            status: str = UNBOUNDED
            perimeter: Extended | None = INF
        elif touches:
            status = INDETERMINATE
            perimeter = None
        else:
            status = BOUNDED
            key = tuple(map(parts.__getitem__, edges))
            perimeter = perimeters.get(key)
            if perimeter is None:
                perimeter = perimeters[key] = Fraction(*scaled_sum(key))
        # positional, in field order: index, cycle, edges, degree, status,
        # perimeter, touches_frontier
        tiles.append(Tile(idx, tuple(cycle), edges, len(edges), status, perimeter, touches))

    return MetricGraph(rotation=rotation, edge_ends=edge_ends,
                       frontier_vertices=frontier, true_degree=true_degree,
                       length=length, tiles=tuple(tiles), dart_tile=dart_tile,
                       vertices=tuple(verts), edges=tuple(sorted(edge_ends)))


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
        heads = [d[1] for d in t.cycle]
        if len(t.cycle) < 3 or len(set(heads)) != len(heads) or len(t.edges) != len(t.cycle):
            violations.append(Violation(
                "ii", f"tile {t.index}",
                f"bounded face cycle {heads} is not a simple >=3 cycle"))

    # (iv): every edge borders two different tiles
    for e in g.edges:
        d1, d2 = g.darts_of(e)
        t1, t2 = g.dart_tile[d1], g.dart_tile[d2]
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
    Cost O(|S|) for a selection of |S| edges, plus one lcm and one
    normalisation: the measure sums the integer length parts of
    ``g.length_parts`` over the lcm of the selection's own denominators
    (:func:`~isotess.rational.scaled_sum`) and builds one Fraction.
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
    parts = g.length_parts
    measure = Fraction(*scaled_sum([parts[e] for e in edges]))
    return SubgraphSelection(edges, frozenset(interior), boundary_degree, measure)


def _flood_faces(g: MetricGraph, inner: frozenset[int]):
    """:func:`_bounded_faces` by flooding every tile of the graph, O(|G|).

    Tiles lie in one face of H when crossings of edges outside H join them.
    """
    ends, tiles, dart_tile = g.edge_ends, g.tiles, g.dart_tile
    seen = [False] * len(tiles)
    groups: list[list[int]] = []
    indeterminate = 0
    for root in range(len(tiles)):
        if seen[root]:
            continue
        seen[root] = True
        group = [root]
        for t in group:
            for e, v in tiles[t].cycle:
                a, b = ends[e]
                if a not in inner or b not in inner:
                    u = dart_tile[(e, b if v == a else a)]
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
    on the family balls, and O(|G|) otherwise.  A tile whose darts all lie
    on H is a face of H by itself.  By Euler's formula a connected H has
    |E_H| - |V_H| + 2 - 2g faces for some genus g >= 0, so when such tiles
    number |E_H| - |V_H| + 1 and are all bounded, g = 0 and H has exactly
    one other face.  Every other tile lies in it, so when the graph has a
    tile that is not bounded, that face is not bounded, and the answer is
    those tiles.  Every other case (H empty or disconnected, no tile that
    is not bounded, a count that does not match) floods every tile
    (:func:`_flood_faces`).
    """
    inner = interior_vertices
    if inner and g.has_open_tile:
        ends, tiles = g.edge_ends, g.tiles
        darts = [(e, v) for v in inner for e in g.rotation[v]
                 if ends[e][0] in inner and ends[e][1] in inner]
        counts = Counter(map(g.dart_tile.__getitem__, darts))
        singles = sorted(t for t, n in counts.items() if n == len(tiles[t].cycle))
        if 2 * len(singles) == len(darts) - 2 * len(inner) + 2 \
                and all(tiles[t].status == BOUNDED for t in singles) \
                and len(_reach(next(iter(inner)), g.rotation, ends, inner)) == len(inner):
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
        star_like = len(_reach(next(iter(full)), g.rotation, g.edge_ends, full)) == len(full)

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
        to_add = {v for ts in groups for t in ts for _, v in g.tiles[t].cycle
                  if v not in sel.interior_vertices}
        if not to_add:
            return sel
        sel = subgraph_stats(g, sel.edges.union(*(g.rotation[v] for v in to_add)))
