"""Canonical enumeration of connected node sets (ESU).

Wernicke's ESU ("Efficient detection of network motifs", IEEE/ACM TCBB
2006) visits every connected node set of a graph once, in an order fixed
by the input.  :mod:`isoperimetry` runs it on the line graph for its edge
scan and on the vertex graph for its vertex scan; the callers keep their
own statistics through the callbacks and may rule out whole subtrees,
which are then counted without being visited.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Sequence

from .errors import BudgetExceeded, OutOfRange


def _exceeded(max_yield: int) -> BudgetExceeded:
    """The error of a scan that would pass ``max_yield`` sets."""
    return BudgetExceeded(f"enumeration exceeded max_yield={max_yield}", max_yield + 1)


def _esu(nbrs: Sequence[Sequence[int]], max_size: int,
         push: Callable[[int], None], pop: Callable[[int], None],
         emit: Callable[[list[int], Sequence[int]], None],
         max_yield: int,
         skip: Callable[[list[int], int], bool] | None = None) -> int:
    """Visit every connected node set of size <= max_size exactly once.

    Nodes are 0..n-1 with sorted adjacency lists ``nbrs``.  Each set is
    grown from its smallest node by canonical augmentation (Wernicke's
    ESU), so the visiting order is fixed by the input alone: first the
    single nodes, then, for each set in turn, all of its extensions by
    one node together before any of them is grown.

    ``emit(stack, cands)`` visits the sets ``stack + [j]`` for the nodes j
    of ``cands`` in order; ``stack`` is the current node list (do not keep
    it; an emit may append to it if it pops again).  ``push`` and ``pop``
    keep the caller's running statistics as a node enters and leaves
    ``stack``, so an emit reads the statistics of ``stack`` and adds j's
    share.

    ``skip(stack, j)``, when given, is asked once per set ``stack + [j]``
    that can still grow (fewer than max_size nodes), after that set is
    visited and before it is grown: True means the caller needs none of
    the sets grown from it.  They are then counted, and the ``max_yield``
    check runs on them as if they were emitted, but j is not pushed and
    no push, pop, emit or skip is called for them.  The hook removes
    visits only: the count and the order of the visits that remain are
    the same as without it.

    Cost: only sets that can still grow are pushed.  The single nodes
    share one emit, and each pushed set hands all of its extensions to
    one emit, so a set costs one emit, push and pop when it is grown and
    nothing of its own when it is not.  The sets at the size limit, most
    of the sets, cost no push, pop, touched mark, slice or recursion.  A
    skipped set's subtree is counted by a walk in the same augmentation
    that keeps no statistics: each of its sets two or more nodes below
    the limit costs one call, a touched mark per fresh neighbour and one
    expression that counts its extensions and theirs, and the sets one
    node below the limit and at it cost nothing of their own; a skipped
    set one node below the limit costs one sum over its neighbours.  An
    emit or a count that would pass ``max_yield`` sets raises
    BudgetExceeded(message, max_yield + 1) before it runs, and a scan
    deeper than Python's recursion limit raises OutOfRange.  Returns the
    number of sets visited or skipped.
    """
    touched = bytearray(len(nbrs))
    width = [len(near) for near in nbrs]
    stack: list[int] = []
    count = 0

    def counted(n: int) -> None:
        nonlocal count
        if count + n > max_yield:
            raise _exceeded(max_yield)
        count += n

    def grown(i: int, ext: list[int], later: int, size: int) -> None:
        # count the sets grown from a set of ``size`` nodes that ends in i,
        # in extend's order: they grow by the last ``later`` nodes of its
        # parent's ``ext`` and by each neighbour of i no smaller set has
        # reached, and so on down to the size limit
        near = nbrs[i]
        if size + 1 == max_size:
            counted(later + width[i] - sum(map(touched.__getitem__, near)))
            return
        fresh = [j for j in near if not touched[j]]
        ext = ext[len(ext) - later:] + fresh
        for j in fresh:
            touched[j] = 1
        n = len(ext)
        if size + 2 == max_size:
            # the n extensions, then the extensions of each: the later
            # nodes of ``ext`` and its neighbours no smaller set has reached
            counted(n * (n + 1) // 2 + sum(map(width.__getitem__, ext)) - sum(
                map(touched.__getitem__, chain.from_iterable(map(nbrs.__getitem__, ext)))))
        else:
            counted(n)
            for k, j in enumerate(ext):
                grown(j, ext, n - k - 1, size + 1)
        for j in fresh:
            touched[j] = 0

    def extend(i: int, ext: list[int]) -> None:
        # stack + [i] has been visited and can grow: push i, visit the sets
        # grown by every later node of ``ext`` and by each neighbour of i
        # no smaller set has reached, then grow those that can grow
        push(i)
        stack.append(i)
        fresh = [j for j in nbrs[i] if not touched[j]]
        ext = ext + fresh
        counted(len(ext))
        emit(stack, ext)
        if len(stack) + 1 < max_size:
            for j in fresh:
                touched[j] = 1
            for k, j in enumerate(ext):
                if skip is not None and skip(stack, j):
                    grown(j, ext, len(ext) - k - 1, len(stack) + 1)
                else:
                    extend(j, ext[k + 1:])
            for j in fresh:
                touched[j] = 0
        pop(i)
        stack.pop()

    try:
        roots = range(len(nbrs))
        counted(len(roots))
        emit(stack, roots)
        if max_size > 1:
            for r in roots:
                touched[r] = 1  # r stays touched: later roots never revisit it
                if skip is not None and skip(stack, r):
                    grown(r, [], 0, 1)
                else:
                    extend(r, [])
    except RecursionError:
        raise OutOfRange(f"sets of up to {max_size} nodes nest deeper than "
                         f"Python's recursion limit") from None
    finally:
        # extend and grown refer to themselves through their cells: without
        # this the scan's closures, and whatever the callbacks hold, live
        # until a collection
        del extend, grown
    return count
