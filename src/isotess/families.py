"""Generators for the example graph families and their exact closed forms.

All generators emit interchange records (see :mod:`isotess.interchange`)
carrying a ``family`` metadata block, so every analysis is reproducible
from the file alone.  Truncations are honest: vertices with incomplete
stars are frontier-marked with their true degrees, and only genuinely
unbounded faces are declared unbounded.

:func:`read_family` is the one reader of a block: it dispatches on its
``kind`` once and returns the :class:`~isotess.isoperimetry.Family` of
closed forms the analyses certify with, after checking a (p, q) block
against the graph it came with.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    FamilyMismatch,
    GraphError,
    InputFormatError,
    NegativeCurvatureParams,
    OutOfRange,
    ParamTooSmall,
    RadiusTooSmall,
    TruncationTooShallow,
)
from .graphcore import BOUNDED, MetricGraph, subgraph_stats
from .interchange import make_record
from .isoperimetry import Bound, Family
from .rational import Surd, _digit_limit, _too_long


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PQParams:
    """(p, q)-regular tessellation: degree p vertices, degree q tiles.

    q may be infinite (math.inf), giving the p-regular tree.  Requires
    c_{p,q} = 1 - 2/p - 2/q >= 0; otherwise no infinite tessellation exists.
    """

    p: int
    q: int | float

    def __post_init__(self):
        if self.p < 3:
            raise ParamTooSmall(f"p = {self.p} < 3")
        if not self.is_tree and (not isinstance(self.q, int) or self.q < 3):
            raise ParamTooSmall(f"q = {self.q}: need an integer >= 3 or infinity")
        if self.char_value < 0:
            raise NegativeCurvatureParams(
                f"c_{{{self.p},{self.q}}} = {self.char_value} < 0")

    @property
    def is_tree(self) -> bool:
        return isinstance(self.q, float) and math.isinf(self.q)

    @property
    def char_value(self) -> Fraction:
        c = Fraction(1) - Fraction(2, self.p)
        if not self.is_tree:
            c -= Fraction(2, self.q)
        return c


@dataclass(frozen=True)
class GkParams:
    """Half-plane square lattice with a k-regular tree below each bottom vertex.

    The truncation keeps rows 0..rows, columns -cols..cols and tree depth
    ``tree_depth``; lengths are 1 on tree edges, 1/(2n+2)^2 on row-n
    horizontals and 1/(2n+3)^2 on verticals between rows n and n+1.
    """

    k: int
    rows: int = 3
    cols: int = 3
    tree_depth: int = 2

    def __post_init__(self):
        if self.k < 3:
            raise ParamTooSmall(f"k = {self.k} < 3")
        if self.rows < 1 or self.cols < 1 or self.tree_depth < 1:
            raise ParamTooSmall("rows, cols and tree_depth must be >= 1")


@dataclass(frozen=True)
class NETreeParams:
    """p-regular tree ball of the given depth with one edge of length p."""

    p: int
    depth: int = 2

    def __post_init__(self):
        if self.p < 5:
            raise ParamTooSmall(f"p = {self.p} < 5")
        if self.depth < 2:
            raise ParamTooSmall(f"depth = {self.depth} < 2")


# ---------------------------------------------------------------------------
# (p, q) combinatorial ball
# ---------------------------------------------------------------------------

class _PatchBuilder:
    """Grows a simply-connected patch of the (p, q)-regular tessellation.

    The patch is a topological disc at every step.  Each vertex keeps its
    clockwise fan of incident edges; the single unfilled corner sits
    between the last and first fan entries.  A new q-gon is glued along a
    boundary dart; the face is forced to continue along the existing
    boundary exactly at saturated vertices (degree already p), and branches
    off with fresh edges elsewhere.
    """

    def __init__(self, p: int, q: int):
        self.p = p
        self.q = q
        self.fan: list[list[int]] = []
        self.ends: list[tuple[int, int]] = []
        self.adj: list[set[int]] = []
        self.filled: set[tuple[int, int]] = set()
        self._init_face()

    # -- primitives --------------------------------------------------------

    def _new_vertex(self) -> int:
        self.fan.append([])
        self.adj.append(set())
        return len(self.fan) - 1

    def _new_edge(self, u: int, w: int) -> int:
        assert u != w, "loop"
        assert w not in self.adj[u], "parallel edge"
        self.ends.append((u, w))
        self.adj[u].add(w)
        self.adj[w].add(u)
        return len(self.ends) - 1

    def other(self, e: int, v: int) -> int:
        a, b = self.ends[e]
        return b if v == a else a

    def _init_face(self) -> None:
        verts = [self._new_vertex() for _ in range(self.q)]
        edges = [self._new_edge(verts[i], verts[(i + 1) % self.q])
                 for i in range(self.q)]
        for i in range(self.q):
            # at verts[i]: incoming edge i-1, outgoing edge i (clockwise)
            self.fan[verts[i]] = [edges[i - 1], edges[i]]
            self.filled.add((edges[i - 1], verts[i]))

    # -- face gluing --------------------------------------------------------

    def _saturated(self, v: int) -> bool:
        return len(self.fan[v]) == self.p

    def add_face(self, h0: tuple[int, int]) -> None:
        assert h0 not in self.filled, "corner already filled"
        chain = deque([h0])
        while len(chain) < self.q:
            grew = False
            e, v = chain[-1]
            if self._saturated(v):
                rot = self.fan[v]
                nxt = rot[(rot.index(e) + 1) % self.p]
                d = (nxt, self.other(nxt, v))
                assert d not in self.filled, "front collision (forward)"
                chain.append(d)
                grew = True
                if len(chain) == self.q:
                    break
            e0, v0 = chain[0]
            u = self.other(e0, v0)
            if self._saturated(u):
                rot = self.fan[u]
                prv = rot[(rot.index(e0) - 1) % self.p]
                d = (prv, u)
                assert d not in self.filled, "front collision (backward)"
                chain.appendleft(d)
                grew = True
            if not grew:
                break

        r = self.q - len(chain)
        head = chain[-1][1]
        tail = self.other(chain[0][0], chain[0][1])
        if r == 0:
            assert head == tail, "q-gon does not close"
        else:
            assert not self._saturated(head) and not self._saturated(tail)
            assert head != tail, "q-gon would pinch"
            # path head -> fresh vertices -> tail
            prev = head
            for step in range(r):
                nxt = tail if step == r - 1 else self._new_vertex()
                e = self._new_edge(prev, nxt)
                if prev == head:
                    assert self.fan[head][-1] == chain[-1][0]
                    self.fan[head].append(e)
                else:
                    self.fan[prev].append(e)  # second entry of a fresh fan
                if nxt == tail:
                    assert self.fan[tail][0] == chain[0][0]
                    self.fan[tail].insert(0, e)
                else:
                    self.fan[nxt] = [e]  # first entry: incoming edge
                chain.append((e, nxt))
                prev = nxt
        for d in chain:
            self.filled.add(d)

    def complete_vertex(self, v: int) -> None:
        while not (self._saturated(v) and (self.fan[v][-1], v) in self.filled):
            self.add_face((self.fan[v][-1], v))

    # -- distances ----------------------------------------------------------

    def distances(self) -> list[int]:
        dist = [-1] * len(self.fan)
        dist[0] = 0
        queue = deque([0])
        while queue:
            v = queue.popleft()
            for w in self.adj[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        return dist


def gen_pq_ball(params: PQParams, radius: int) -> dict:
    """Interchange record for the radius-`radius` ball of the (p,q) graph.

    Layers are completed breadth-first, so the kept subgraph is exactly
    the induced ball: every vertex within graph distance ``radius`` of the
    root, with full rotations and degree p off the outermost layer.
    Equilateral (all lengths 1).  For q = infinity this is the p-regular
    tree ball, whose single traced face is genuinely unbounded.
    """
    if radius < 1:
        raise RadiusTooSmall(f"radius = {radius} < 1")
    family = {"kind": "pq", "p": params.p,
              "q": "inf" if params.is_tree else params.q, "radius": radius}
    if params.is_tree:
        return _tree_ball_record(params.p, radius, family)

    builder = _PatchBuilder(params.p, params.q)
    builder.complete_vertex(0)
    for layer in range(1, radius + 1):
        dist = builder.distances()
        for v in sorted(v for v in range(len(dist)) if dist[v] == layer):
            builder.complete_vertex(v)

    dist = builder.distances()
    kept = sorted(v for v in range(len(dist)) if 0 <= dist[v] <= radius)
    vmap = {v: i for i, v in enumerate(kept)}
    kept_set = set(kept)
    kept_edges = [e for e, (a, b) in enumerate(builder.ends)
                  if a in kept_set and b in kept_set]
    emap = {e: i for i, e in enumerate(sorted(kept_edges))}

    rotation = {}
    for v in kept:
        rotation[vmap[v]] = [emap[e] for e in builder.fan[v] if e in emap]
    edge_ends = {emap[e]: (vmap[builder.ends[e][0]], vmap[builder.ends[e][1]])
                 for e in kept_edges}
    lengths = {emap[e]: Fraction(1) for e in kept_edges}
    frontier = {vmap[v] for v in kept if len(rotation[vmap[v]]) < params.p}
    true_degree = {vmap[v]: params.p for v in kept}
    return make_record(rotation, edge_ends, lengths, frontier=frontier,
                       true_degree=true_degree, unbounded_face_reps=[],
                       family=family)


def _tree_ball_record(p: int, radius: int, family: dict) -> dict:
    rotation: dict[int, list[int]] = {0: []}
    edge_ends: dict[int, tuple[int, int]] = {}
    lengths: dict[int, Fraction] = {}
    depth = {0: 0}
    queue = deque([0])
    while queue:
        v = queue.popleft()
        if depth[v] == radius:
            continue
        n_children = p if v == 0 else p - 1
        for _ in range(n_children):
            w = len(rotation)
            e = len(edge_ends)
            rotation[w] = [e]  # parent edge first
            rotation[v].append(e)
            edge_ends[e] = (v, w)
            lengths[e] = Fraction(1)
            depth[w] = depth[v] + 1
            queue.append(w)
    frontier = {v for v in rotation if depth[v] == radius}
    true_degree = {v: p for v in rotation}
    # a tree has a single traced face; in the infinite tree every face is
    # an unbounded half-plane, so mark it
    return make_record(rotation, edge_ends, lengths, frontier=frontier,
                       true_degree=true_degree,
                       unbounded_face_reps=[(0, edge_ends[0][1])],
                       family=family)


# ---------------------------------------------------------------------------
# G_k: half-plane lattice with attached trees
# ---------------------------------------------------------------------------

def _gk_edge_length(kind: str, n: int = 0) -> Fraction:
    if kind == "tree":
        return Fraction(1)
    if kind == "horizontal":  # within row n
        return Fraction(1, (2 * n + 2) ** 2)
    if kind == "vertical":  # between rows n and n+1
        return Fraction(1, (2 * n + 3) ** 2)
    raise ValueError(kind)


def gen_gk(params: GkParams) -> dict:
    """Interchange record for a G_k truncation.

    Every frontier-free edge class up to row rows-1 has a complete
    representative once cols >= 2 and tree_depth >= 2.  The single traced
    face below row 0 (which also wraps the outside of the truncation) is
    marked unbounded: in the infinite graph every tile bordered by a
    frontier-free edge on that face is a genuinely unbounded region
    between adjacent infinite trees.
    """
    k, rows, cols, depth = params.k, params.rows, params.cols, params.tree_depth
    vid: dict[tuple, int] = {}

    def vertex(key: tuple) -> int:
        if key not in vid:
            vid[key] = len(vid)
        return vid[key]

    # lattice row-major, then trees per root (deterministic ids)
    for n in range(rows + 1):
        for x in range(-cols, cols + 1):
            vertex(("L", x, n))
    tree_children: dict[int, list[int]] = {}
    tree_parent: dict[int, int] = {}
    for x in range(-cols, cols + 1):
        frontier_nodes = [vertex(("L", x, 0))]
        for d in range(1, depth + 1):
            next_nodes = []
            for parent in frontier_nodes:
                n_children = k if d == 1 else k - 1
                kids = []
                for c in range(n_children):
                    w = vertex(("T", x, d, len(next_nodes) + c))
                    tree_parent[w] = parent
                    kids.append(w)
                next_nodes.extend(kids)
                tree_children[parent] = kids
            frontier_nodes = next_nodes

    edge_ends: dict[int, tuple[int, int]] = {}
    lengths: dict[int, Fraction] = {}

    def edge(u: int, w: int, kind: str, n: int) -> int:
        e = len(edge_ends)
        edge_ends[e] = (u, w)
        lengths[e] = _gk_edge_length(kind, n)
        return e

    up: dict[int, int] = {}
    right: dict[int, int] = {}
    for n in range(rows + 1):
        for x in range(-cols, cols + 1):
            v = vid[("L", x, n)]
            if x < cols:
                right[v] = edge(v, vid[("L", x + 1, n)], "horizontal", n)
            if n < rows:
                up[v] = edge(v, vid[("L", x, n + 1)], "vertical", n)
    tree_edge: dict[int, int] = {}
    for w, parent in sorted(tree_parent.items()):
        tree_edge[w] = edge(parent, w, "tree", 0)

    rotation: dict[int, list[int]] = {}
    true_degree: dict[int, int] = {}
    for key, v in vid.items():
        if key[0] == "L":
            _, x, n = key
            rot: list[int] = []
            if n < rows:
                rot.append(up[v])  # N
            if x < cols:
                rot.append(right[v])  # E
            if n == 0:
                rot.extend(tree_edge[w] for w in tree_children.get(v, ()))  # S fan
            else:
                rot.append(up[vid[("L", x, n - 1)]])  # S
            if x > -cols:
                rot.append(right[vid[("L", x - 1, n)]])  # W
            rotation[v] = rot
            true_degree[v] = (k + 3) if n == 0 else 4
        else:
            rot = [tree_edge[v]]
            rot.extend(tree_edge[w] for w in tree_children.get(v, ()))
            rotation[v] = rot
            true_degree[v] = k

    frontier = {v for v in rotation if len(rotation[v]) < true_degree[v]}
    # the face below row 0: both sides of any tree edge lie on it
    first_tree = min(tree_edge.values())
    rep = (first_tree, edge_ends[first_tree][1])
    family = {"kind": "gk", "k": k, "rows": rows, "cols": cols,
              "tree_depth": depth}
    return make_record(rotation, edge_ends, lengths, frontier=frontier,
                       true_degree=true_degree, unbounded_face_reps=[rep],
                       family=family)


# ---------------------------------------------------------------------------
# non-equilateral trees (one long edge)
# ---------------------------------------------------------------------------

def gen_nonequilateral_tree(p: int, depth: int) -> dict:
    """p-regular tree ball with one marked edge of length p, the rest 1.

    Defined for p >= 5.  The long edge is the first edge at the root; its
    id is recorded in the family block.
    """
    NETreeParams(p, depth)
    record = _tree_ball_record(p, depth, family=None)
    record["edges"][0]["length"] = str(p)
    record["family"] = {"kind": "netree", "p": p, "depth": depth, "hat_edge": 0}
    return record


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PQClosedForms:
    """Exact closed forms for the (p, q) family.

    For q = infinity every value is a Fraction and delta is None.  For a
    finite q, with x = pq - 2(p + q) = pq c and s = sqrt(x(x + 4)) (Häggström,
    Jonasson and Lyons, Ann. Probab. 2002), alpha_comb = ((p-2)/p) s/(x+4),
    alpha = (p-2)/(p-1 + (p/2)(s/x - 1)) and delta = (s - x)/2 are
    :class:`~isotess.rational.Surd` values of the one d = x(x + 4), each
    the Fraction 0 when c = 0.  alpha_lower is the exact curvature bound
    c_*/K = q(p-2)c/(q(p-1)c + 1), which alpha attains at q = infinity;
    alpha_comb_lower is the induced combinatorial bound
    ((p-2)/p)(1 - 2/((p-2)(q-2) - 2)).
    """

    p: int
    q: int | float
    c: Fraction
    kappa: Fraction
    alpha_comb: Fraction | Surd
    alpha: Fraction | Surd
    alpha_lower: Fraction
    delta: Fraction | Surd | None
    alpha_comb_lower: Fraction


def closed_forms_pq(params: PQParams) -> PQClosedForms:
    p, q = params.p, params.q
    c = params.char_value
    kappa = -Fraction(p, 2) * c
    if params.is_tree:
        alpha_comb = Fraction(p - 2, p)
        alpha = Fraction(p - 2, p - 1)
        alpha_lower = Fraction(p - 2, p - 1)
        delta = None
        alpha_comb_lower = Fraction(p - 2, p)
    else:
        x = p * q - 2 * (p + q)  # = pq c
        s = Surd(0, 1, x * (x + 4))  # x + 4 = (p-2)(q-2)
        alpha_comb = Fraction(p - 2, p) * s / (x + 4)
        alpha = (p - 2) / (p - 1 + Fraction(p, 2) * (s / x - 1)) if c else Fraction(0)
        delta = (s - x) / 2
        alpha_lower = Fraction(q * (p - 2)) * c / (Fraction(q * (p - 1)) * c + 1)
        alpha_comb_lower = Fraction(p - 2, p) * (1 - Fraction(2, (p - 2) * (q - 2) - 2))
    return PQClosedForms(p=p, q=q, c=c, kappa=kappa, alpha_comb=alpha_comb,
                         alpha=alpha, alpha_lower=alpha_lower, delta=delta,
                         alpha_comb_lower=alpha_comb_lower)


def gk_closed_constants(k: int) -> dict:
    """The exact G_k constants: M, K, c by edge class, and the alpha bracket."""
    if k < 3:
        raise ParamTooSmall(f"k = {k} < 3")
    m_v0 = Fraction(k) + Fraction(11, 18)
    return {
        "M": 9 * Fraction(k) + Fraction(11, 2),
        "K": Fraction(18 * k + 9, 18 * k + 11),
        "c_star": Fraction(k - 2, k),
        "c_minus_0": Fraction(164, 77) - 2 / m_v0,
        "c_plus_0": Fraction(8955, 5467) - 1 / m_v0,
        "row_ratio_sup": Fraction(497, 72),
        "m_v0": m_v0,
        "alpha_lower": Fraction(18 * k + 11, 18 * k + 9) * Fraction(k - 2, k),
        "alpha_upper": Fraction(k - 2, k - 1),
    }


def gk_witness_sequence(k: int, l: int, graph: MetricGraph | None = None,
                        record: dict | None = None) -> dict:
    """Closed-form data of the depth-l attached-tree subgraph of G_k.

    measure = k((k-1)^l - 1)/(k-2); the boundary consists of the root
    (subgraph degree k) and the k(k-1)^(l-1) depth-l leaves (degree 1), so
    boundary_degree = k + k(k-1)^(l-1).  When a generated truncation is
    supplied, the actual subgraph is cut out and must match exactly, else
    GraphError; a record that is not G_k with this k, or whose ``cols`` is not
    a vertex id, raises it before any work, and a G_k block whose ``k``,
    ``tree_depth`` or ``cols`` is missing or not an integer is InputFormatError.
    A (k, l) whose measure, boundary degree or ratio would have more digits
    than Python writes is OutOfRange, before (k-1)^l is formed when a bound
    on the measure's digits already shows it.
    """
    if k < 3 or l < 2:
        raise ParamTooSmall("need k >= 3 and l >= 2")
    # Python writes ints of at most ``limit`` digits.  The measure's
    # numerator is at least (k-1)^l >= 2^(l(b-1)), b the bit length of
    # k-1, and 2^(4 limit) = 16^limit has more than ``limit`` digits.
    limit = _digit_limit()
    if limit and l * ((k - 1).bit_length() - 1) >= 4 * limit:
        raise OutOfRange(f"k = {k}, l = {l}: the measure has more than {limit} digits")
    if graph is not None:
        family = (record or {}).get("family")
        if not isinstance(family, dict) or family.get("kind") != "gk" \
                or _int_field(family, "k") != k:
            raise GraphError(f"cross-check needs a generated G_{k} record, "
                             f"got family {family!r}")
        depth = _int_field(family, "tree_depth")
        if depth < l:
            raise TruncationTooShallow(f"tree_depth {depth} < l = {l}")
        # vertex ids follow the generator's construction order: ("L", 0, 0),
        # the root of the x=0 tree, is at row-major position cols
        root = _int_field(family, "cols")
        if root not in graph.rotation:
            raise GraphError(f"family cols = {root} is not a vertex id")
    measure = Fraction(k * ((k - 1) ** l - 1), k - 2)
    boundary_degree = k + k * (k - 1) ** (l - 1)
    ratio = Fraction(boundary_degree) / measure
    if limit and any(_too_long(n, limit) for n in (
            measure.numerator, measure.denominator, boundary_degree,
            ratio.numerator, ratio.denominator)):
        raise OutOfRange(f"k = {k}, l = {l}: the witness data has more than {limit} digits")
    out = {
        "k": k, "l": l,
        "measure": measure,
        "boundary_degree": boundary_degree,
        "ratio": ratio,
        "limit": Fraction(k - 2, k - 1),
        "cross_checked": False,
    }
    if graph is not None:
        sel = subgraph_stats(graph, _gk_tree_edges(graph, k, root, l))
        if sel.measure != measure or sel.boundary_degree != boundary_degree:
            raise GraphError(
                f"closed form ({measure}, {boundary_degree}) != subgraph "
                f"({sel.measure}, {sel.boundary_degree})")
        out["cross_checked"] = True
    return out


def _gk_tree_edges(graph: MetricGraph, k: int, root: int, l: int) -> list[int]:
    """Edges of the x=0 attached tree down to depth l, by BFS from the root."""
    edges: list[int] = []
    level = [root]
    seen = {root}
    for _ in range(l):
        nxt = []
        for v in level:
            unit = [e for e in graph.rotation[v]
                    if graph.length[e] == 1 and graph.other_end(e, v) not in seen]
            for e in unit:
                w = graph.other_end(e, v)
                seen.add(w)
                nxt.append(w)
                edges.append(e)
        level = nxt
    expected = k * sum((k - 1) ** j for j in range(l))
    if len(edges) != expected:
        raise GraphError(f"tree cut has {len(edges)} edges, expected {expected}")
    return edges


# ---------------------------------------------------------------------------
# the family block
# ---------------------------------------------------------------------------

def read_family(block, g: MetricGraph) -> Family:
    """What the family block ``block`` certifies; Family() if absent or of unknown kind.

    (p, q): the closed forms of :func:`closed_forms_pq`, alpha both ways
    and c_*/K below it when c > 0 or q = infinity, unit lengths.  G_k: c_*/K
    below, the witness limit (k-2)/(k-1) above and alpha_comb 0 (the
    half-plane lattice already has vanishing combinatorial constant);
    ell_star = 1 and no ell_min, since inf |e| = 0 over the infinite graph.
    Non-equilateral trees: alpha_S >= (1/2)(p-2)/(p-1), the p-regular
    tree's alpha_comb, ell_star = p and ell_min = 1.

    A non-object block or a missing or non-integer field (``q`` may be
    "inf") is InputFormatError; a value the generator rejects raises its
    error.  A (p, q) block is checked against ``g`` first: ``g`` must have
    a frontier, no vertex more than p edges and every known degree p, and
    every bounded tile a walk of q sides over q distinct edges (none when q
    is infinite); else FamilyMismatch, naming the first vertex or tile that
    differs.
    """
    if block is None:
        return Family()
    if not isinstance(block, dict):
        raise InputFormatError(f"family block is not an object: {block!r}")
    kind = block.get("kind")
    if kind == "pq":
        params = PQParams(_int_field(block, "p"),
                          math.inf if block.get("q") == "inf" else _int_field(block, "q"))
        _check_pq(g, params)
        forms = closed_forms_pq(params)
        exact = "exact alpha of the (p,q) family"
        bounds = [Bound(forms.alpha, "closed_form", "lower", True, note=exact),
                  Bound(forms.alpha, "closed_form", "upper", True, note=exact)]
        if forms.c > 0 or params.is_tree:
            bounds.insert(0, Bound(forms.alpha_lower, "cK_lower", "lower", True,
                                   note="closed form c_*/K of the (p,q) family"))
        return Family(tuple(bounds), forms.alpha_comb, Fraction(1), Fraction(1))
    if kind == "gk":
        consts = gk_closed_constants(_int_field(block, "k"))
        return Family((Bound(consts["alpha_lower"], "cK_lower", "lower", True,
                             note="closed form c_*/K of G_k"),
                       Bound(consts["alpha_upper"], "closed_form", "upper", True,
                             note="limit of the attached-tree witness ratios")),
                      Fraction(0), Fraction(1))
    if kind == "netree":
        p = NETreeParams(_int_field(block, "p")).p
        return Family((Bound(Fraction(p - 2, 2 * (p - 1)), "closed_form", "lower", True,
                             target="alpha_S",
                             note="alpha_S >= (1/2)(p-2)/(p-1): star-like complete "
                                  "subgraphs have mes <= 2#edges"),),
                      Fraction(p - 2, p), Fraction(p), Fraction(1))
    return Family()


def _check_pq(g: MetricGraph, params: PQParams) -> None:
    """FamilyMismatch unless ``g`` could be a ball of the (p, q) tessellation."""
    p, q = params.p, params.q
    if g.is_frontier_free:
        raise FamilyMismatch("family pq: the graph has no frontier, so it is "
                             "no ball of an infinite tessellation")
    for v in g.vertices:
        td = g.true_degree[v]
        if td != p and (td is not None or g.degree(v) > p):
            raise FamilyMismatch(f"family pq: vertex {v} has degree "
                                 f"{td or g.degree(v)}, not p = {p}")
    for t in g.tiles:
        if t.status == BOUNDED and (params.is_tree or len(t.cycle) != q
                                    or t.degree != q):
            raise FamilyMismatch(f"family pq: tile {t.index} has {len(t.cycle)} "
                                 f"sides over {t.degree} edges, not q = {q}")


def _int_field(family: dict, name: str) -> int:
    """Field ``name`` of a family block; InputFormatError unless a JSON integer."""
    value = family.get(name)
    if type(value) is not int:
        raise InputFormatError(f"family {family.get('kind')}: {name} must be an "
                               f"integer, got {value!r}")
    return value
