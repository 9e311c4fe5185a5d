"""Subgroup bases for finitely generated subgroups of the rank-2 free group.

A generator list is read as loops at a base vertex and folded into the
subgroup's core graph, one transition map step[u][c] = v over signed
letters.  Reading a generator follows the slots already filled and, where
a slot is empty, fills it and its reverse (v, c^-1) with a fresh vertex;
only the closing letter's two slots, back to the base, go on the merge
worklist.  Once every generator is read, the worklist fills its slots; a
slot that already holds another head merges the two heads, the smaller id
surviving so the base stays 0, and the dropped vertex's slots go back on
the worklist.  No trim is needed: slots only ever fill, and every non-base
vertex starts with two filled, since a reduced word never turns back on
itself.  The folded graph depends only on the subgroup (Stallings), and a
breadth-first tree trying letters in byte order gives each vertex its
shortlex-least path from the base, so the basis is a function of the
subgroup, not of the generator list.

The tree is geodesic, and the dual basis -- one element per non-tree edge,
read as tree-path + edge + reverse tree-path, sorted shortlex -- satisfies
the three length conditions

    (i)   u != 1,
    (ii)  l(uv) >= max(l(u), l(v))          whenever uv != 1,
    (iii) l(uvw) > l(u) - l(v) + l(w)       whenever uv != 1 and vw != 1,

for all u, v, w ranging over the basis and its inverses.  Cancellation in a
product of two basis elements removes exactly the common prefix of the two
adjoining tree paths and never the edge letters; the geodesic property of
the tree bounds that prefix by (shorter adjacent path) + 1, which gives (ii),
and the middle element of a triple keeps its edge letter, which gives the
strict inequality (iii).  `check_nielsen` re-verifies the conditions
verbatim, and membership tracing yields an explicit rewriting of any member
as a product of basis elements, checked by multiplying back out.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .words import (
    LETTER_A,
    LETTER_B,
    Word,
    inverse_bytes,
    inverse_letter,
    is_reduced,
)

_POSITIVE = (LETTER_A, LETTER_B)
# deterministic exploration order: A < B < a < b (byte order)
_SIGNED_ORDER = tuple(sorted((LETTER_A, LETTER_B,
                              inverse_letter(LETTER_A), inverse_letter(LETTER_B))))

_BASE = 0

# step[u][c] = v: reading signed letter c at u leads to v.  Folded means one
# head per slot; every slot (u, c) -> v has its reverse (v, c^-1) -> u.
_Step = Dict[int, Dict[int, int]]


def _core_graph(gens: Iterable[Word]) -> _Step:
    """Folded core graph of <gens>; every non-base vertex has degree >= 2."""
    step: _Step = {_BASE: {}}
    merged: Dict[int, int] = {}  # dropped id -> the id it merged into

    def find(u: int) -> int:
        while u in merged:
            u = merged[u]
        return u

    # each generator is a loop at the base: its letters follow the slots
    # already filled and fill an empty one with a fresh id, and only its
    # closing letter's two slots wait for the merges; every generator is
    # read before any merge, so len(step) is always unused
    todo: List[Tuple[int, int, int]] = []  # slots (u, c) -> v to fill
    for g in gens:
        cur = _BASE
        for c in g.data[:-1]:
            nxt = step[cur].get(c)
            if nxt is None:
                nxt = step[cur][c] = len(step)
                step[nxt] = {inverse_letter(c): cur}
            cur = nxt
        if g:
            c = g.data[-1]
            todo += [(cur, c, _BASE), (_BASE, inverse_letter(c), cur)]
    while todo:
        u, c, v = todo.pop()
        u, v = find(u), find(v)
        w = find(step[u].setdefault(c, v))
        if w != v:  # two heads in one slot: merge, keeping the smaller id
            keep, drop = min(v, w), max(v, w)
            merged[drop] = keep
            todo += [(keep, d, x) for d, x in step.pop(drop).items()]
    # nothing to trim: a filled slot stays filled through every merge, and a
    # non-base vertex starts with two, since a reduced word never reads c
    # then c^-1 through it
    return {u: {c: find(v) for c, v in nbrs.items()} for u, nbrs in step.items()}


class SubgroupGraph:
    """Folded core graph of <gens> with a geodesic spanning tree and basis."""

    def __init__(self, gens: Iterable[Word]):
        self._step = step = _core_graph(gens)

        # geodesic spanning tree by BFS; fixed letter order keeps it canonical
        path: Dict[int, bytes] = {_BASE: b""}
        tree: Set[Tuple[int, int]] = set()  # tree slots, both directions
        queue = deque([_BASE])
        while queue:
            u = queue.popleft()
            for c in _SIGNED_ORDER:
                v = step[u].get(c)
                if v is None or v in path:
                    continue
                path[v] = path[u] + bytes([c])
                tree.update(((u, c), (v, inverse_letter(c))))
                queue.append(v)

        basis: List[Tuple[Word, int, int, int]] = []
        for u, nbrs in step.items():
            for c, v in nbrs.items():
                if c not in _POSITIVE or (u, c) in tree:
                    continue
                raw = path[u] + bytes([c]) + inverse_bytes(path[v])
                assert is_reduced(raw)  # folded + geodesic tree: no cancellation
                basis.append((Word.from_reduced(raw), u, c, v))
        basis.sort(key=lambda it: (len(it[0].data), it[0].data))
        self.basis: List[Word] = [w for w, *_ in basis]
        # slot -> (basis index, +1/-1) for each non-tree slot
        self._crossing: Dict[Tuple[int, int], Tuple[int, int]] = {}
        for i, (_, u, c, v) in enumerate(basis):
            self._crossing[(u, c)] = (i, 1)
            self._crossing[(v, inverse_letter(c))] = (i, -1)

    @property
    def rank(self) -> int:
        return len(self.basis)

    def trace(self, w: Word) -> Optional[int]:
        cur = _BASE
        for c in w.data:
            cur = self._step[cur].get(c)
            if cur is None:
                return None
        return cur

    def contains(self, w: Word) -> bool:
        return self.trace(w) == _BASE

    def express(self, w: Word) -> Optional[List[Tuple[int, int]]]:
        """Rewrite a member as [(basis index, +1/-1), ...], or None.

        Collapsing the spanning tree sends the traced loop to the sequence of
        signed non-tree edges it crosses.
        """
        cur = _BASE
        out: List[Tuple[int, int]] = []
        for c in w.data:
            v = self._step[cur].get(c)
            if v is None:
                return None
            crossed = self._crossing.get((cur, c))
            if crossed is not None:
                out.append(crossed)
            cur = v
        return out if cur == _BASE else None


def expand_expression(basis: Sequence[Word], expr: Iterable[Tuple[int, int]]) -> Word:
    acc = Word.identity()
    for idx, sign in expr:
        acc = acc * (basis[idx] if sign > 0 else ~basis[idx])
    return acc


def check_nielsen(gens: Sequence[Word]) -> Optional[str]:
    """None if (i)-(iii) hold over gens and their inverses, else a complaint."""
    signed = []
    for g in gens:
        signed.append(g)
        signed.append(~g)
    for u in signed:
        if not u:
            return "(i) fails: identity in the set"
    for u in signed:
        for v in signed:
            uv = u * v
            if not uv:
                continue
            if len(uv) < max(len(u), len(v)):
                return f"(ii) fails: l({u}*{v}) = {len(uv)}"
    for u in signed:
        for v in signed:
            uv = u * v
            if not uv:
                continue
            for w in signed:
                if not v * w:
                    continue
                if len(uv * w) <= len(u) - len(v) + len(w):
                    return f"(iii) fails at {u},{v},{w}"
    return None


def same_subgroup(xs: Sequence[Word], ys: Sequence[Word]) -> bool:
    """Double inclusion via membership in the two folded graphs."""
    gx, gy = SubgroupGraph(xs), SubgroupGraph(ys)
    return all(gx.contains(y) for y in ys) and all(gy.contains(x) for x in xs)


@dataclass(frozen=True)
class ReductionReport:
    basis: Tuple[Word, ...]
    rank: int
    rewrites: Tuple[Tuple[Word, Tuple[Tuple[int, int], ...]], ...]

    def verified(self) -> bool:
        return all(expand_expression(list(self.basis), expr) == g
                   for g, expr in self.rewrites)


def reduce_with_witnesses(gens: Sequence[Word]) -> ReductionReport:
    """Reduce and record, for each input, its expression in the new basis."""
    graph = SubgroupGraph(gens)
    rewrites = []
    for g in gens:
        expr = graph.express(g)
        assert expr is not None  # inputs span the graph
        rewrites.append((g, tuple(expr)))
    return ReductionReport(basis=tuple(graph.basis), rank=graph.rank,
                           rewrites=tuple(rewrites))
