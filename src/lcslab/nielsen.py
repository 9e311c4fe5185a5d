"""Subgroup bases for finitely generated subgroups of the rank-2 free group.

A subgroup given by a generator list is turned into its folded core graph
(vertices, edges labeled a/b, no two same-label edges sharing an endpoint
in the same direction).  A breadth-first spanning tree is geodesic, and the
dual basis -- one element per non-tree edge, read as tree-path + edge +
reverse tree-path -- satisfies the three length conditions

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

# An edge is identified by (tail, positive letter, head); the adjacency map
# stores both directions: adj[u][c] = heads reachable by reading signed c.
_Adj = Dict[int, Dict[int, Set[int]]]


def _add_edge(adj: _Adj, u: int, letter: int, v: int) -> None:
    adj.setdefault(u, {}).setdefault(letter, set()).add(v)
    adj.setdefault(v, {}).setdefault(inverse_letter(letter), set()).add(u)


def _merge(adj: _Adj, keep: int, drop: int) -> None:
    """Identify two vertices; every reference to drop becomes keep."""
    if keep == drop:
        return
    for c, vs in adj.pop(drop).items():
        adj.setdefault(keep, {}).setdefault(c, set()).update(vs)
    for nbrs in adj.values():
        for vs in nbrs.values():
            if drop in vs:
                vs.discard(drop)
                vs.add(keep)


def _find_unfolded(adj: _Adj) -> Optional[Tuple[int, int]]:
    for u in sorted(adj):
        nbrs = adj[u]
        for c in _SIGNED_ORDER:
            vs = nbrs.get(c)
            if vs and len(vs) >= 2:
                lo, hi = sorted(vs)[:2]
                return lo, hi  # keep the smaller id, so the base survives
    return None


def _fold(adj: _Adj) -> None:
    while True:
        pair = _find_unfolded(adj)
        if pair is None:
            return
        _merge(adj, *pair)


def _degree(nbrs: Dict[int, Set[int]]) -> int:
    return sum(len(vs) for vs in nbrs.values())


def _trim(adj: _Adj) -> None:
    # drop dead branches: a reduced loop at the base never enters a vertex of
    # degree one, so girth/membership are unaffected
    while True:
        leaf = next((u for u in sorted(adj)
                     if u != _BASE and _degree(adj[u]) <= 1), None)
        if leaf is None:
            return
        for c, vs in adj.pop(leaf).items():
            ci = inverse_letter(c)
            for v in vs:
                adj[v][ci].discard(leaf)
                if not adj[v][ci]:
                    del adj[v][ci]


class SubgroupGraph:
    """Folded core graph of <gens> with a geodesic spanning tree and basis."""

    def __init__(self, gens: Iterable[Word]):
        adj: _Adj = {_BASE: {}}
        fresh = 1
        for g in gens:
            data = g.data
            cur = _BASE
            for i, c in enumerate(data):
                nxt = _BASE if i == len(data) - 1 else fresh
                if nxt != _BASE:
                    fresh += 1
                if c in _POSITIVE:
                    _add_edge(adj, cur, c, nxt)
                else:
                    _add_edge(adj, nxt, inverse_letter(c), cur)
                cur = nxt
        _fold(adj)
        _trim(adj)

        # after folding each signed step is deterministic
        step: Dict[Tuple[int, int], int] = {}
        for u, nbrs in adj.items():
            for c, vs in nbrs.items():
                assert len(vs) == 1
                step[(u, c)] = next(iter(vs))
        self._step = step

        # geodesic spanning tree by BFS; fixed letter order keeps it canonical
        path: Dict[int, bytes] = {_BASE: b""}
        tree: Set[Tuple[int, int, int]] = set()
        queue = deque([_BASE])
        while queue:
            u = queue.popleft()
            for c in _SIGNED_ORDER:
                v = step.get((u, c))
                if v is None or v in path:
                    continue
                path[v] = path[u] + bytes([c])
                tree.add(self._edge_id(u, c, v))
                queue.append(v)
        self._path = path

        basis: List[Tuple[Word, Tuple[int, int, int]]] = []
        for (u, c), v in step.items():
            if c not in _POSITIVE:
                continue
            eid = (u, c, v)
            if eid in tree:
                continue
            raw = path[u] + bytes([c]) + inverse_bytes(path[v])
            assert is_reduced(raw)  # folded + geodesic tree: no cancellation
            basis.append((Word.from_reduced(raw), eid))
        basis.sort(key=lambda it: (len(it[0].data), it[0].data))
        self.basis: List[Word] = [w for w, _ in basis]
        self._basis_index = {eid: i for i, (_, eid) in enumerate(basis)}

    @staticmethod
    def _edge_id(u: int, c: int, v: int) -> Tuple[int, int, int]:
        return (u, c, v) if c in _POSITIVE else (v, inverse_letter(c), u)

    @property
    def rank(self) -> int:
        return len(self.basis)

    def trace(self, w: Word) -> Optional[int]:
        cur = _BASE
        for c in w.data:
            cur = self._step.get((cur, c))
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
            v = self._step.get((cur, c))
            if v is None:
                return None
            eid = self._edge_id(cur, c, v)
            idx = self._basis_index.get(eid)
            if idx is not None:
                out.append((idx, 1 if c in _POSITIVE else -1))
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
