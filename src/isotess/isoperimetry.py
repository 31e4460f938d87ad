"""Brute-force oracles and certified bound assembly for isoperimetric constants.

The metric isoperimetric constant is the infimum of deg(boundary S) /
mes(S) over finite connected subgraphs S; the combinatorial one replaces
subgraphs by finite vertex sets.  Both are approached from above by
canonical enumeration and from below by the curvature estimates.  One ESU
routine (:mod:`esu`) serves both: it visits every connected vertex set
once in an order fixed by the input, and connected edge subsets are the
connected vertex sets of the line graph; ``esu._esu`` states how it
batches the one-node extensions of a set and what a set costs.  The edge
scan keeps its statistics with one degree rule, held as tables of the
change each added edge makes.  The scans run in one process and in integers
(lengths scaled by L, the lcm of their denominators; ratios
cross-multiplied); each result builds one Fraction, for the smallest
ratio with the lexicographically smallest witness, so results do not
depend on the visiting order.  The brute-force minimum over edge subsets
bounds each batch from below and skips the batches that cannot beat or
tie its best so far, and where no set can close a vertex it bounds and
skips whole subtrees; skipped sets still count, so counts, values and
witnesses are those of the full scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Sequence

from .curvature import CurvatureReport, global_constants
from .errors import (
    BudgetExceeded,
    EmptyFrontierFreeRegion,
    FrontierContact,
    InputFormatError,
    NonPositiveEllMin,
    OutOfRange,
)
from .esu import _esu
from .graphcore import (
    MetricGraph,
    SubgraphSelection,
    complete_closure,
    subgraph_stats,
)
from .rational import INF, Extended, Surd, scaled_sum


@dataclass(frozen=True)
class Budget:
    """Enumeration limits: subgraph edge count, generator vertices, hard cap."""

    max_edges: int = 6
    max_generators: int = 4
    max_yield: int = 2_000_000

    def __post_init__(self):
        if self.max_edges < 1 or self.max_generators < 1 or self.max_yield < 1:
            raise ValueError("budget fields must be positive")


@dataclass(frozen=True)
class Bound:
    """One bound on an isoperimetric constant, with provenance.

    ``target`` is "alpha" or "alpha_S" (the star-like-complete restricted
    constant); a lower bound on alpha is also one on alpha_S, not vice
    versa.  ``certified`` marks bounds valid for the underlying infinite
    graph; observed/empirical bounds carry certified=False.
    """

    value: Extended | Surd
    provenance: str
    side: str  # "lower" | "upper"
    certified: bool
    target: str = "alpha"
    witness: tuple[int, ...] | None = None
    note: str = ""


class Family(NamedTuple):
    """What a family block certifies about the underlying infinite graph.

    ``bounds`` are its closed-form bounds on alpha, ``alpha_comb`` its
    closed-form combinatorial constant, ``ell_star`` and ``ell_min`` the
    sup and inf of its edge lengths; None where the family says nothing.
    :func:`isotess.families.read_family` builds one from a block; the
    empty ``Family()`` stands for a record without one.
    """

    bounds: tuple[Bound, ...] = ()
    alpha_comb: Fraction | Surd | None = None
    ell_star: Fraction | None = None
    ell_min: Fraction | None = None

    def check_lengths(self, g: MetricGraph) -> None:
        """InputFormatError when an edge length of ``g`` lies outside the
        family's [ell_min, ell_star], since its bounds assume them."""
        if self.ell_min is not None and min(g.length.values()) < self.ell_min:
            raise InputFormatError(f"an edge is shorter than the family's ell_min {self.ell_min}")
        if self.ell_star is not None and max(g.length.values()) > self.ell_star:
            raise InputFormatError(f"an edge is longer than the family's ell_star {self.ell_star}")


# ---------------------------------------------------------------------------
# connected edge and vertex sets, each an ESU scan
# ---------------------------------------------------------------------------

def _true_degrees(g: MetricGraph, vertices: Iterable[int]) -> list[int]:
    """True degrees of ``vertices``; FrontierContact if one is unknown."""
    for v in vertices:
        if g.true_degree[v] is None:
            raise FrontierContact(f"vertex {v} has unknown true degree")
    return [g.true_degree[v] for v in vertices]


def length_scale(g: MetricGraph, edge_ids: Iterable[int]) -> int:
    """L, the lcm of the length denominators of ``edge_ids``: |e| * L is an int."""
    return math.lcm(*(g.length[e].denominator for e in edge_ids))


def scan_connected_edge_subsets(g: MetricGraph, max_edges: int, visit: Callable,
                                eligible_edges: Iterable[int] | None = None,
                                max_yield: int = Budget.max_yield, *,
                                _hopeless: Callable[[int, int, int], bool] | None = None
                                ) -> int:
    """Visitor-style scan for callers that cannot afford materialized sets.

    ``visit(stack, boundary_degree, measure)`` runs once per
    connected subset, where ``stack`` holds indices into the sorted
    eligible edge list (translate via its order when edge ids are needed).
    ``measure`` is an int in units of 1/L, L = ``length_scale(g, eligible
    edges)``.  The eligible edges default to the frontier-free region.
    This is the ESU scan on the line graph.  Returns the number of subsets.

    ``_hopeless(first, num, den)``, private to :func:`_lex_min`, lets the
    scan skip a whole batch (the sets ``stack + [j]`` of one emit)
    without visiting it.  Call a vertex a closer when it has 1 <= deg =
    td - 1, deg counting its edges in ``stack`` and td its true degree;
    the degree tables give the change of bd and of the closer count as
    deg grows, and push, pop, emit and skip all read them.  With no
    closer, every candidate edge j has an end in the set, which adds +1,
    and its other end adds at least ``low`` (0 if some eligible vertex
    has td 1, else 1), while j adds at most the longest eligible length
    ``top``: every set of the batch has ratio >= (bd + 1 + low) / (mes +
    top).  The batch is skipped when ``_hopeless(stack[0], bd + 1 + low,
    mes + top)`` says that no set of that ratio or more, grown from
    ``stack[0]``, can change the caller's result.  Each emit checks this
    once, on the statistics of ``stack``; before a set of max_edges - 1
    edges is pushed, ``_esu``'s ``skip`` checks it for that set's leaves,
    so a skipped leaf batch costs no push, pop or emit.  Above that level
    ``skip`` rules out a set's whole subtree, but only when no eligible
    vertex of td >= 2 has td <= max_edges.  Then no set of the scan
    closes a vertex, so each of the r edges still to add raises bd by at
    least 1 + low and mes by at most ``top``, and every set r edges below
    ``stack + [j]`` has ratio >= (bd' + r (1 + low)) / (mes' + r top),
    with bd' and mes' those of ``stack + [j]``.  For r from 1 to R =
    max_edges - |stack + [j]| these floors are mediants of the two at r
    = 1 and r = R, so the subtree is skipped when ``_hopeless`` rules out
    both; its sets are counted by ``_esu``'s walk, which calls no hook.
    On other inputs ``skip`` answers False above the last level before
    it reads a statistic.  Skipped sets still count, and the sets that
    are visited come in the same order, so the return value and the
    ``max_yield`` boundary do not depend on the hook.
    """
    edge_ids = sorted(eligible_edges if eligible_edges is not None
                      else g.frontier_free_edges())
    vid: dict[int, int] = {}
    ends = []
    for e in edge_ids:
        a, b = g.edge_ends[e]
        ends.append((vid.setdefault(a, len(vid)), vid.setdefault(b, len(vid))))
    truedeg = _true_degrees(g, vid)
    scale = length_scale(g, edge_ids)
    lengths = [int(g.length[e] * scale) for e in edge_ids]
    index = {e: i for i, e in enumerate(edge_ids)}
    nbrs = [sorted({index[f] for v in g.edge_ends[e] for f in g.rotation[v]
                    if f in index} - {i}) for i, e in enumerate(edge_ids)]
    # the floor of a batch member's boundary degree over bd, and of its measure over mes
    gain = 1 if 1 in truedeg else 2
    top = max(lengths, default=0)

    # the degree rule, once: a vertex of true degree t with d of its edges
    # in S adds d to bd while d < t, and is a closer while 1 <= d = t - 1;
    # rise[w][d] and close[w][d] are the changes in bd and in the closer
    # count when the degree of w goes from d to d + 1
    def rule(t: int, d: int) -> tuple[int, bool]:
        return (d if d < t else 0), 1 <= d == t - 1

    tables = {t: ([rule(t, d + 1)[0] - rule(t, d)[0] for d in range(t)],
                  [rule(t, d + 1)[1] - rule(t, d)[1] for d in range(t)])
              for t in set(truedeg)}
    rise = [tables[t][0] for t in truedeg]
    close = [tables[t][1] for t in truedeg]

    deg = [0] * len(vid)
    bd = 0
    mes = 0
    closers = 0

    def push(i: int) -> None:
        nonlocal bd, mes, closers
        for w in ends[i]:
            d = deg[w]
            bd += rise[w][d]
            closers += close[w][d]
            deg[w] = d + 1
        mes += lengths[i]

    def pop(i: int) -> None:
        nonlocal bd, mes, closers
        for w in ends[i]:
            d = deg[w] = deg[w] - 1
            bd -= rise[w][d]
            closers -= close[w][d]
        mes -= lengths[i]

    # the set stack + [j] has the statistics of push(j), read without
    # storing; the two ends differ, since build_graph rejects loops
    def emit(stack: list[int], cands: Sequence[int]) -> None:
        if not closers and stack and _hopeless is not None \
                and _hopeless(stack[0], bd + gain, mes + top):
            return
        stack.append(-1)
        for j in cands:
            a, b = ends[j]
            stack[-1] = j
            visit(stack, bd + rise[a][deg[a]] + rise[b][deg[b]], mes + lengths[j])
        stack.pop()

    # the sets grown from stack + [j], up to r edges more, from the
    # statistics of push(j) read without storing: at the last level a
    # closer rules the floor out; above it the floor needs ``deep``, no
    # vertex that a set of the scan can close
    deep = not any(2 <= t <= max_edges for t in truedeg)

    def skip(stack: list[int], j: int) -> bool:
        r = max_edges - len(stack) - 1
        if r > 1 and not deep:
            return False
        a, b = ends[j]
        da, db = deg[a], deg[b]
        first = stack[0] if stack else j
        num = bd + rise[a][da] + rise[b][db]
        den = mes + lengths[j]
        if r == 1:
            return not closers + close[a][da] + close[b][db] and _hopeless(
                first, num + gain, den + top)
        return _hopeless(first, num + gain, den + top) and _hopeless(
            first, num + r * gain, den + r * top)

    return _esu(nbrs, max_edges, push, pop, emit, max_yield,
                None if _hopeless is None else skip)


def enumerate_connected_subgraphs(g: MetricGraph, max_edges: int,
                                  max_yield: int = Budget.max_yield,
                                  eligible_edges: Iterable[int] | None = None):
    """Every connected edge subset of size <= max_edges, exactly once.

    Subsets are sorted tuples of edge ids, listed in the scan's canonical
    order: the single edges, then, set by set, the one-edge extensions of
    each set together before any of them is grown (see :func:`_esu`).
    """
    edge_ids = sorted(eligible_edges if eligible_edges is not None
                      else g.frontier_free_edges())
    out: list[tuple[int, ...]] = []

    def visit(stack, bd, mes):
        out.append(tuple(sorted(edge_ids[i] for i in stack)))

    scan_connected_edge_subsets(g, max_edges, visit, edge_ids, max_yield)
    return out


def _vertex_nbrs(g: MetricGraph, vertex_ids: Sequence[int]) -> list[list[int]]:
    """Sorted adjacency lists over the indices of the sorted ``vertex_ids``."""
    vidx = {v: i for i, v in enumerate(vertex_ids)}
    return [sorted(vidx[w] for w in (g.other_end(e, v) for e in g.rotation[v])
                   if w in vidx)
            for v in vertex_ids]


def _scan_connected_vertex_sets(g: MetricGraph, vertex_ids: Sequence[int],
                                max_size: int, visit: Callable,
                                max_yield: int) -> int:
    """ESU scan over connected sets of the sorted ``vertex_ids``.

    ``visit(stack, boundary_edges, degree_sum)`` runs once per set;
    ``stack`` holds indices into ``vertex_ids``.
    """
    truedeg = _true_degrees(g, vertex_ids)
    nbrs = _vertex_nbrs(g, vertex_ids)

    in_set = bytearray(len(vertex_ids))
    sumdeg = 0
    internal = 0

    def push(i: int) -> None:
        nonlocal sumdeg, internal
        sumdeg += truedeg[i]
        internal += sum(in_set[j] for j in nbrs[i])
        in_set[i] = 1

    def pop(i: int) -> None:
        nonlocal sumdeg, internal
        in_set[i] = 0
        sumdeg -= truedeg[i]
        internal -= sum(in_set[j] for j in nbrs[i])

    def emit(stack: list[int], cands: Sequence[int]) -> None:
        stack.append(-1)
        for j in cands:
            total = sumdeg + truedeg[j]
            stack[-1] = j
            visit(stack, total - 2 * (internal + sum([in_set[k] for k in nbrs[j]])),
                  total)
        stack.pop()

    return _esu(nbrs, max_size, push, pop, emit, max_yield)


# ---------------------------------------------------------------------------
# star-like complete enumeration
# ---------------------------------------------------------------------------

def enumerate_starlike_complete(g: MetricGraph, max_generators: int,
                                generators_from: Iterable[int] | None = None,
                                max_yield: int = Budget.max_yield
                                ) -> tuple[list[SubgraphSelection], int]:
    """All star-like complete subgraphs from <= max_generators generators.

    Connected generator sets U are enumerated over the frontier-free region
    (or ``generators_from``); each union of stars is closed up and
    deduplicated by edge set.  Candidates whose closure escapes the safe
    region are skipped and counted; returns (selections, skipped).

    The unions grow inside the ESU scan: ``push`` and ``pop`` keep the
    union of the stars of the scan's stack, and each candidate, that union
    with one more star, is measured, closed and deduplicated as soon as it
    is built, one ``subgraph_stats`` and one ``complete_closure`` call
    each.  Candidates come in the scan's order, so the selections, their
    order and ``skipped`` are those of closing every set after the scan,
    and a scan that would pass ``max_yield`` sets raises BudgetExceeded at
    the same count.
    """
    vertex_ids = sorted(generators_from if generators_from is not None
                        else g.frontier_free_vertices())
    _true_degrees(g, vertex_ids)  # FrontierContact on a generator of unknown degree
    nbrs = _vertex_nbrs(g, vertex_ids)
    stars = [frozenset(g.rotation[v]) for v in vertex_ids]
    # unions[k] is the union of the stars of the first k nodes of the stack
    unions: list[frozenset[int]] = [frozenset()]
    seen: set[frozenset[int]] = set()
    out: list[SubgraphSelection] = []
    skipped = 0

    def push(i: int) -> None:
        unions.append(unions[-1] | stars[i])

    def pop(i: int) -> None:
        unions.pop()

    def emit(stack: list[int], cands: Sequence[int]) -> None:
        nonlocal skipped
        base = unions[-1]
        for j in cands:
            try:
                sel = complete_closure(g, subgraph_stats(g, base | stars[j]))
            except FrontierContact:
                skipped += 1
                continue
            if sel.edges not in seen:
                seen.add(sel.edges)
                out.append(sel)

    _esu(nbrs, max_generators, push, pop, emit, max_yield)
    return out, skipped


# ---------------------------------------------------------------------------
# brute-force upper bounds
# ---------------------------------------------------------------------------

def _lex_min(scan: Callable[[Callable, Callable], int], ids: Sequence[int], what: str,
             skip_zero: bool = False) -> tuple[int, int, tuple[int, ...], int]:
    """(num, den, witness ids, count) of the smallest (num/den, sorted set).

    ``scan(visit, hopeless)`` runs an ESU scan calling ``visit(stack, num,
    den)`` per set (den > 0), with no Fraction; ``skip_zero`` drops
    num = 0.  ESU grows each set from its smallest index, ``stack[0]``,
    and visits roots in increasing order: a tie whose ``stack[0]`` exceeds
    the best's first index cannot give a smaller witness and is skipped
    unsorted.  A scan with no set to choose from raises
    EmptyFrontierFreeRegion.

    ``hopeless(first, num, den)`` is True when no set grown from index
    ``first`` with ratio >= num/den > 0 can replace the best so far: the
    floor is above the best ratio, or equals it and the set's witness is
    lexicographically larger, because ``first`` exceeds the best's first
    index or the best is the single set ``[first]``, a prefix of every
    larger set grown from ``first``.  A scan may skip, uncalled, any
    visits the hook rules out; the best can only fall as the scan goes
    on, so those visits would not have changed it, and the result is the
    same with or without the skips.  Skipped sets still count.
    """
    best_num, best_den, best = 1, 0, None  # 1/0 is above every ratio

    def visit(stack, num, den):
        nonlocal best_num, best_den, best
        left, right = num * best_den, best_num * den
        if left > right or (left == right and stack[0] > best[0]) \
                or (skip_zero and not num):
            return
        witness = sorted(stack)
        if left < right or witness < best:
            best_num, best_den, best = num, den, witness

    def hopeless(first, num, den):
        left, right = num * best_den, best_num * den
        return left > right or (left == right and (first > best[0] or best == [first]))

    count = scan(visit, hopeless)
    if best is None:
        raise EmptyFrontierFreeRegion(f"no {what} in the frontier-free region")
    return best_num, best_den, tuple(ids[i] for i in best), count


@dataclass(frozen=True)
class BruteForceResult:
    bound: Bound
    enumerated: int


def alpha_upper_bruteforce(g: MetricGraph, budget: Budget,
                           eligible_edges: Iterable[int] | None = None,
                           workers: int = 1,
                           proper_only: bool = False) -> BruteForceResult:
    """min deg(bd S)/mes(S) over enumerated connected subgraphs.

    A certified upper bound on alpha whenever the true-degree data is
    honest.  The witness is the lexicographically smallest sorted edge-id
    sequence among the minimizers.  ``proper_only`` skips subgraphs with
    empty boundary (the whole graph).  ``workers`` selects nothing: the
    scan runs in one process and the result does not depend on it.
    EmptyFrontierFreeRegion: no subgraph is left to minimise over.
    """
    edge_ids = sorted(eligible_edges if eligible_edges is not None
                      else g.frontier_free_edges())
    bd, mes, witness, count = _lex_min(
        lambda visit, hopeless: scan_connected_edge_subsets(
            g, budget.max_edges, visit, edge_ids, budget.max_yield,
            _hopeless=hopeless),
        edge_ids, "proper subgraph" if proper_only else "subgraph",
        skip_zero=proper_only)
    bound = Bound(value=Fraction(bd * length_scale(g, edge_ids), mes),
                  provenance="bruteforce_upper", side="upper", certified=True,
                  witness=witness, note=f"min over {count} connected subgraphs "
                                        f"(<= {budget.max_edges} edges)")
    return BruteForceResult(bound=bound, enumerated=count)


@dataclass(frozen=True)
class CombUpperResult:
    value: Fraction
    witness_vertices: tuple[int, ...]
    enumerated: int


def alpha_comb_upper_bruteforce(g: MetricGraph, budget: Budget) -> CombUpperResult:
    """min (#boundary edges of U) / (sum of degrees in U) over vertex sets.

    EmptyFrontierFreeRegion: no vertex is frontier-free.
    """
    vertex_ids = g.frontier_free_vertices()
    cut, sumdeg, witness, count = _lex_min(
        lambda visit, hopeless: _scan_connected_vertex_sets(
            g, vertex_ids, budget.max_generators, visit, budget.max_yield),
        vertex_ids, "vertex set")
    return CombUpperResult(value=Fraction(cut, sumdeg), witness_vertices=witness,
                           enumerated=count)


# ---------------------------------------------------------------------------
# lower bounds and bracket assembly
# ---------------------------------------------------------------------------

def lower_bounds(g: MetricGraph, report: CurvatureReport | None = None,
                 budget: Budget | None = None,
                 total_measure: Fraction | None = None) -> list[Bound]:
    """Observed lower bounds from the curvature constants.

    Emits c*/K and c* when positive, the empirical averaged-curvature
    statistic, and 2/mes(G) when a finite total measure is declared for an
    infinite graph.  Entries are certified only on data that determines
    the true constants; truncation values are observed.
    """
    if report is None:
        report = global_constants(g)
    certified = g.is_frontier_free  # finite graph: constants are exact
    out: list[Bound] = []

    if report.c_star is not None and report.c_star > 0 and report.K and report.K > 0:
        out.append(Bound(value=report.c_star / report.K, provenance="cK_lower",
                         side="lower", certified=certified,
                         note="alpha >= c_*/K (requires c_* > 0)"))
    if report.c_star is not None and report.c_star > 0:
        out.append(Bound(value=report.c_star, provenance="cstar_lower",
                         side="lower", certified=certified,
                         note="alpha >= c_*"))

    budget = budget or Budget()
    try:
        selections, _ = enumerate_starlike_complete(
            g, budget.max_generators, max_yield=budget.max_yield)
    except (FrontierContact, BudgetExceeded):
        selections = []
    # w(e) = c(e)|e| as integer parts, once per edge; each average
    # sum w(e) / mes(S) is compared with the smallest so far by
    # cross-multiplication and only the smallest becomes a Fraction
    weight: dict[int, tuple[int, int]] = {}
    for e in set().union(*[sel.edges for sel in selections]):
        c = report.char_value[e]
        if c is not None:
            w = c * g.length[e]
            weight[e] = (w.numerator, w.denominator)
    best_num, best_den = 1, 0  # 1/0 is above every average
    averaged = 0
    for sel in selections:
        if weight.keys() >= sel.edges:
            num, scale = scaled_sum([weight[e] for e in sel.edges])
            mes = sel.measure
            num, den = num * mes.denominator, scale * mes.numerator
            if num * best_den < best_num * den:
                best_num, best_den = num, den
            averaged += 1
    if averaged:
        value = min(Fraction(2) / report.ell_star, Fraction(best_num, best_den))
        out.append(Bound(value=value, provenance="est01_empirical",
                         side="lower", certified=False,
                         note=f"min(2/ell*, averaged curvature over "
                              f"{averaged} star-like complete subgraphs)"))

    if total_measure is not None:
        out.append(Bound(value=Fraction(2) / total_measure,
                         provenance="estvol_lower", side="lower", certified=True,
                         note="alpha >= 2/mes(G) for infinite graphs of "
                              "finite total measure"))
    return out


@dataclass
class AlphaBracket:
    bounds: list[Bound] = field(default_factory=list)
    best_lower: Fraction | Surd | None = None
    best_upper: Fraction | Surd | None = None
    alpha_exact: Fraction | Surd | None = None
    restricted_alpha: dict | None = None
    cheeger: dict | None = None


def cheeger_interval(alpha: Fraction | Surd, ell_min: Fraction
                     ) -> tuple[Fraction | Surd, Fraction | Surd]:
    """(alpha^2/4, (355/113)^2 alpha / (2 ell_min)): the lambda_0 bracket.

    The exact upper end replaces pi^2 by (355/113)^2 > pi^2, so it bounds
    pi^2 alpha / (2 ell_min) from above; both ends are of alpha's type.
    """
    if ell_min <= 0:
        raise NonPositiveEllMin(f"ell_min = {ell_min}")
    if alpha < 0:
        raise OutOfRange(f"alpha = {alpha} < 0")
    return alpha * alpha / 4, alpha / (2 * ell_min) * Fraction(355, 113) ** 2


def equilateral_transform(alpha_comb: Fraction | Surd) -> Fraction | Surd:
    """alpha = 2 a / (a + 1) for equilateral graphs, a = alpha_comb."""
    if not 0 <= alpha_comb <= 1:
        raise OutOfRange(f"alpha_comb = {alpha_comb} outside [0, 1]")
    return 2 * alpha_comb / (alpha_comb + 1)


def alpha_bracket(g: MetricGraph, budget: Budget | None = None,
                  family: Family = Family(), workers: int = 1) -> AlphaBracket:
    """Assemble all lower/upper bounds on alpha.

    Always includes the universal upper bound 2/ell*.  If some certified
    lower bound on alpha_S (or alpha) reaches a certified 2/ell*, alpha
    equals 2/ell* exactly and the bracket collapses.  For genuinely finite
    graphs alpha is trivially 0 (the whole graph has empty boundary) and
    the infimum over proper subgraphs is reported separately.  ``family``
    is the record's :class:`Family`: its bounds join the bracket, and its
    ell_star and ell_min, where given, stand in for the observed ones and
    certify 2/ell* and the Cheeger interval.  A best certified lower bound
    above the best certified upper bound, such as a family's alpha > 0 on
    a finite graph, is OutOfRange.  ``alpha_exact`` is set by one rule:
    the best certified lower and upper bounds are equal.  The finite case
    and the reduction rule add their value at both ends, so each either
    collapses the bracket through that rule or is refused.  ``workers``
    selects nothing, as in :func:`alpha_upper_bruteforce`.
    """
    budget = budget or Budget()
    report = global_constants(g)
    bracket = AlphaBracket()
    bounds = bracket.bounds
    finite = g.is_frontier_free

    ell_star = family.ell_star if family.ell_star is not None else report.ell_star
    bounds.append(Bound(value=Fraction(2) / ell_star, provenance="ellstar_upper",
                        side="upper", certified=True,
                        note="alpha <= 2/ell*"
                             + ("" if family.ell_star or finite
                                else " (observed ell*, still an upper bound)")))

    try:
        brute = alpha_upper_bruteforce(g, budget, workers=workers,
                                       proper_only=finite)
        bounds.append(brute.bound)
    except (FrontierContact, EmptyFrontierFreeRegion) as exc:
        brute = None
        bounds.append(Bound(value=INF, provenance="bruteforce_upper", side="upper",
                            certified=False, note=f"not available: {exc}"))

    bounds.extend(lower_bounds(g, report=report, budget=budget))
    bounds.extend(family.bounds)

    if finite:
        bounds.append(Bound(value=Fraction(0), provenance="closed_form",
                            side="lower", certified=True,
                            note="finite graph: the whole graph has empty boundary"))
        bounds.append(Bound(value=Fraction(0), provenance="closed_form",
                            side="upper", certified=True,
                            note="finite graph: alpha = 0"))
        if brute is not None:
            exhaustive = budget.max_edges >= len(g.edges) - 1
            bracket.restricted_alpha = {
                "value": brute.bound.value,
                "witness": brute.bound.witness,
                "exhaustive": exhaustive,
            }
    else:
        # reduction rule: a certified lower bound on alpha_S at or above a
        # certified 2/ell* pins alpha = 2/ell* exactly
        if family.ell_star is not None:
            two_over = Fraction(2) / family.ell_star
            cert_lowers = [b.value for b in bounds
                           if b.side == "lower" and b.certified]
            if any(v >= two_over for v in cert_lowers):
                bounds.append(Bound(value=two_over, provenance="reduction_exact",
                                    side="lower", certified=True,
                                    note="alpha_S >= 2/ell* forces alpha = 2/ell*"))
                bounds.append(Bound(value=two_over, provenance="reduction_exact",
                                    side="upper", certified=True,
                                    note="alpha_S >= 2/ell* forces alpha = 2/ell*"))

    cert_lower = [b.value for b in bounds
                  if b.side == "lower" and b.certified and b.target == "alpha"]
    cert_upper = [b.value for b in bounds
                  if b.side == "upper" and b.certified and b.target == "alpha"]
    bracket.best_lower = max(cert_lower) if cert_lower else None
    bracket.best_upper = min(cert_upper) if cert_upper else None
    if bracket.best_lower is not None and bracket.best_upper is not None \
            and bracket.best_lower > bracket.best_upper:
        raise OutOfRange("the best certified lower bound exceeds the best "
                         "certified upper bound")
    if bracket.best_lower is not None and bracket.best_lower == bracket.best_upper:
        bracket.alpha_exact = bracket.best_lower

    ell_min = family.ell_min if family.ell_min is not None else report.ell_min
    if bracket.best_upper is not None and bracket.best_lower is not None:
        lo, _ = cheeger_interval(bracket.best_lower, ell_min)
        _, hi = cheeger_interval(bracket.best_upper, ell_min)
        bracket.cheeger = {
            "lambda0_lower": lo,
            "lambda0_upper": hi,
            "ell_min": ell_min,
            "certified": bool(finite or (family.ell_min is not None
                                         and family.ell_star is not None)),
        }
    return bracket
