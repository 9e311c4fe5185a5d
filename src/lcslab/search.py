"""Exhaustive shortest-witness search over reduced words.

Every oracle maps a word to a group state: its image in a quotient, in
Z^2 x a quotient, the image plus projected Fox derivatives, or a truncated
Magnus expansion.  A nontrivial word is a member exactly when its state is
the identity.  Each oracle's group is the pair (identity, step), the same
form as the quotient that quotients.parse_quotient_spec returns, and the
oracles are the library's one membership interface; the three quotient
oracles keep their quotient as q and build their states on its step.  Every
oracle decides a normal subgroup of F2 (gamma_n, a kernel, or a derived
subgroup [N, N]), so every search tests only cyclically reduced words (the
shortest member of a conjugation-closed set is cyclically reduced, and
rotations of members are members), and its orbits are closed under
inversion.  An oracle declares only the two prunes that vary:

  * automorphism_invariant: the eight letter automorphisms fix it, so only
    words starting with 'A', the smallest byte, are needed;
  * requires_zero_exponent_sums: its members have both exponent sums zero,
    so the balance prune |ea| + |eb| <= letters remaining holds, and only
    even lengths are searched.

Two searches return the same outcome.  search_min, the depth-first
engine, sweeps lengths in increasing order and walks the radix tree of
reduced words on a GroupWalker, one stack of prefix states.  A child is
pushed and then settled in its parent's loop: the balance prune, and at
the last letter the leaf test, run there, so only an interior child that
survives the prune costs a recursive call.  Every child is still pushed
before it is pruned, so the pushes and leaf tests are those of one call
per node; but the walker computes a state only when it is extended or
tested, so a child the prune cuts costs no step.  Each length is walked
from its one- or two-letter prefixes in turn, on a fresh walker each,
and their hits merge by bytes minimum.
search_mitm, the square-root search (Schroeppel-Shamir 1981), meets in
the middle: a reduced word uv is a member exactly when state(u) =
state(v^-1), so it buckets the left halves by key and looks each right
half up once, at 3^(L/2) cost per length rather than 3^L.  The halves
come from a store of levels, every reduced word of length k beside its
key, each level made once from the one before.  girth (and so alpha,
the girth of lcs:n) and almostlaw.seed_pool_obstruction use it, so every
minimum the CLI and the battery report comes from it.  search_min serves
only the tests' cross-checks and the benchmark's pins of its walker counts, which hold
it in place until the benchmark counts the square-root search
(ROADMAP.md).

A minimum girth finds is re-checked by verify_minimum, which shares none
of the search's pruning (no symmetry, balance or cyclic prune, no
odd-length skip): a meet in the middle over every reduced word of every
shorter length, on the same join as search_mitm.  Within one girth call
the two share one store, since a level is a pure function of the oracle
and its fixed seeds and a second store would hold the same bytes; the
store lives only for that call.  What stays the re-check's own is its
oracle, built again from the id, which pairs it joins, at every shorter
length with no prune, and the exact group() confirmation of every
match and of the witness.

Both join on a key that equal states always share, so a length with no
key match has no member, and both confirm every key match by folding the
word on group() and comparing the state with the identity.  For lcs:n the
key is utkey's row 0 in UT(n, F_p), built level by level on arrays; for a
derived oracle it is the state of key_group(), the image beside one linear
hash of the Fox derivatives; every other oracle joins on its exact state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import add, sub
from random import Random
from typing import (Callable, Dict, Iterator, List, Optional, Sequence,
                    Tuple, Union)

from . import utkey
from .magnus import _check_degree, _letter_updates
from .quotients import parse_quotient_spec
from .words import (EXPONENT_DELTA, LETTER_A, LETTER_AI, LETTER_B,
                    LETTER_BI, Word, inverse_bytes, inverse_letter)

_BYTE_ORDER = b"ABab"  # enumeration order = byte order, so streams are lexicographic
_ALLOWED: Dict[int, bytes] = {
    c: bytes(d for d in _BYTE_ORDER if d != inverse_letter(c)) for c in _BYTE_ORDER
}
P61 = (1 << 61) - 1  # the derived key's modulus, a Mersenne prime


def _auto_tables() -> List[bytes]:
    """Translate tables for the eight signed generator permutations."""
    tables = []
    for swap in (False, True):
        for flip_a in (False, True):
            for flip_b in (False, True):
                base_a, base_b = (b"ba" if swap else b"ab")[0], (b"ab" if swap else b"ba")[0]
                img_a = inverse_letter(base_a) if flip_a else base_a
                img_b = inverse_letter(base_b) if flip_b else base_b
                tables.append(bytes.maketrans(
                    b"aAbB",
                    bytes([img_a, inverse_letter(img_a),
                           img_b, inverse_letter(img_b)])))
    return tables


AUTO_TABLES = _auto_tables()


@dataclass(frozen=True)
class SearchFlags:
    cyclic: bool = False
    inverse: bool = False
    automorphism: bool = False

    def any(self) -> bool:
        return self.cyclic or self.inverse or self.automorphism


def _is_cyclically_reduced_bytes(w: bytes) -> bool:
    return len(w) > 0 and w[0] != inverse_letter(w[-1])


def orbit_words(w: bytes, flags: SearchFlags) -> set:
    """All reduced words equivalent to w under the enabled symmetries.

    Rotations apply only to cyclically reduced words: rotating any other
    reduced word would place its wrap-around inverse pair inside the
    string, leaving the reduced universe.
    """
    out = set()
    tables = AUTO_TABLES if flags.automorphism else [None]
    for t in tables:
        w1 = w.translate(t) if t is not None else w
        forms = (w1, inverse_bytes(w1)) if flags.inverse else (w1,)
        for w2 in forms:
            if flags.cyclic and _is_cyclically_reduced_bytes(w2):
                dbl = w2 + w2
                for i in range(len(w2)):
                    out.add(dbl[i:i + len(w2)])
            else:
                out.add(w2)
    return out


def canonical_bytes(w: bytes, flags: SearchFlags) -> bytes:
    return min(orbit_words(w, flags)) if flags.any() else w


# ----------------------------------------------------------------------
# oracles

class GroupWalker:
    """Membership along a search path, kept as a stack of prefix states.

    Every oracle maps a word to a group state: its image in a quotient,
    possibly with more data (exponent sums, projected Fox derivatives, a
    truncated Magnus expansion).  A nontrivial word is a member exactly
    when its state is the identity.  step(state, letter) returns the state
    of the longer prefix and never changes its argument, so pop only drops
    the top state and no undo arithmetic exists.

    A state is computed only when it is extended or tested.  push records
    its letter as pending, after settling the previous pending letter with
    one step; pop of a pending letter just clears it; is_member and
    state() settle it.  A child pushed and popped unread, as the balance
    prune does, costs no step.
    """

    __slots__ = ("identity", "step", "stack", "pending")

    def __init__(self, identity, step):
        self.identity = identity
        self.step = step
        self.stack = [identity]
        self.pending = 0  # the top letter, not yet stepped; 0 for none

    def push(self, letter: int) -> None:
        pending = self.pending
        if pending:
            self.stack.append(self.step(self.stack[-1], pending))
        self.pending = letter

    def pop(self, letter: int) -> None:
        if self.pending:
            self.pending = 0
        else:
            self.stack.pop()

    def state(self):
        """The state of the whole path, its pending letter stepped."""
        if self.pending:
            self.stack.append(self.step(self.stack[-1], self.pending))
            self.pending = 0
        return self.stack[-1]

    def is_member(self) -> bool:
        state = self.state()
        return len(self.stack) > 1 and state == self.identity


class Oracle:
    """Membership of nontrivial reduced words in a normal subgroup of F2,
    with the two prunes that vary declared (see the module docstring).

    group() returns (identity, step): the state of the empty word, and
    step(state, letter) -> the state of the longer prefix (it never
    changes its argument).  Word to state is a homomorphism into a group,
    so w is a member exactly when its state == identity.  make_walker
    wraps the pair in a GroupWalker, which calls step only for a state
    that is extended or tested.

    key_group() returns the (identity, step) whose hashable states the
    meet in the middle joins on.  Its one contract: words with equal
    group() states get equal key states, so a length with no match has
    no member.  Distinct states may share a key state; every match is
    confirmed on group().  It defaults to group(), which never collides.
    lcs:n, whose group() states are lists, gives them as tuples, but
    the search joins lcs:n on utkey's arrays (_key_levels); its
    key_group() serves only to check that join against exact states."""

    automorphism_invariant = False
    requires_zero_exponent_sums = False

    def group(self) -> Tuple[object, Callable]:
        raise NotImplementedError

    def key_group(self) -> Tuple[object, Callable]:
        return self.group()

    def make_walker(self) -> GroupWalker:
        raise NotImplementedError


class KernelOracle(Oracle):
    def __init__(self, quotient_spec: str):
        self.q = parse_quotient_spec(quotient_spec)
        # z2's kernel is declared fixed by the letter automorphisms; no
        # permutation kernel is, even where that holds (S3, Klein)
        if quotient_spec == "z2":
            self.requires_zero_exponent_sums = True
            self.automorphism_invariant = True

    def group(self):
        # state: the image of the prefix in the quotient
        return self.q

    def make_walker(self) -> GroupWalker:
        return GroupWalker(*self.group())


class DerivedKernelOracle(Oracle):
    # derived subgroups consist of products of commutators
    requires_zero_exponent_sums = True

    def __init__(self, quotient_spec: str):
        self.q = parse_quotient_spec(quotient_spec)
        self.automorphism_invariant = quotient_spec == "z2"

    def group(self):
        # state: the image p plus both Fox derivatives projected into the
        # group ring of the quotient (Fox 1953), as dicts
        # copied on write, with zeros never stored.  A letter adds +p to
        # its generator's derivative, an inverse letter -(p after it).
        identity, multiply = self.q

        def step(state, c):
            p, da, db = state
            p2 = multiply(p, c)
            if c == LETTER_A or c == LETTER_AI:
                table = da = dict(da)
            else:
                table = db = dict(db)
            if c == LETTER_A or c == LETTER_B:
                n = table.get(p, 0) + 1
                g = p
            else:
                n = table.get(p2, 0) - 1
                g = p2
            if n:
                table[g] = n
            else:
                del table[g]
            return p2, da, db

        return (identity, {}, {}), step

    def key_group(self):
        # state: the image p and h = sum of coeff * r(g, gen) mod P61 over
        # both projected Fox derivatives, with one weight r per (g, gen)
        # drawn on first use from a fixed seed.  h is linear in the
        # derivatives, so equal derived states get equal keys; two
        # distinct ones with the same p collide with probability 1/P61.
        identity, multiply = self.q
        draw = Random("derived key").randrange
        wa, wb = {}, {}  # g -> r(g, a), g -> r(g, b)
        weights = {LETTER_A: wa, LETTER_AI: wa, LETTER_B: wb, LETTER_BI: wb}

        def step(state, c):
            p, h = state
            p2 = multiply(p, c)
            table = weights[c]
            if c == LETTER_A or c == LETTER_B:
                r = table.get(p)
                if r is None:
                    r = table[p] = draw(P61)
                return p2, (h + r) % P61
            r = table.get(p2)
            if r is None:
                r = table[p2] = draw(P61)
            return p2, (h - r) % P61

        return (identity, 0), step

    def make_walker(self) -> GroupWalker:
        return GroupWalker(*self.group())


class ZeroSumKernelOracle(KernelOracle):
    """Kernel members with both exponent sums zero: the intersection of two
    normal subgroups, which entitles the engine to the balance prune."""

    requires_zero_exponent_sums = True

    def group(self):
        # state: both exponent sums and the image, the identity in Z^2 x Q
        identity, multiply = self.q

        def step(state, c):
            ea, eb, p = state
            da, db = EXPONENT_DELTA[c]
            return ea + da, eb + db, multiply(p, c)

        return (0, 0, identity), step

    def make_walker(self) -> GroupWalker:
        return GroupWalker(*self.group())


class DepthOracle(Oracle):
    """Members: nontrivial words lying at lower-central depth >= n.

    Truncating at degree n-1 decides this exactly; the terms of the
    series either vanish below n or they do not.
    """

    automorphism_invariant = True  # the series terms are fully invariant

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("depth threshold must be >= 1")
        _check_degree(max(1, n - 1))
        self.n = n
        self.requires_zero_exponent_sums = n >= 2  # degree-1 terms are the sums

    def group(self):
        # state: the Magnus expansion truncated at degree n-1 (none at all
        # for n = 1), which is 1 exactly when depth >= n: magnus's heap
        # layout and slot slices, on a list of exact Python ints
        D = self.n - 1
        updates = _letter_updates(D)

        def step(state, c):
            positive, pairs = updates[c]
            op = add if positive else sub
            out = state[:]
            for target, source in pairs:  # both slices copy before the write
                out[target] = map(op, out[target], out[source])
            return out

        return [1] + [0] * ((2 << D) - 2), step

    def key_group(self):
        # the exact expansion as a tuple, so that it hashes; the search
        # never calls this, as it joins lcs:n on utkey's arrays
        identity, step = self.group()
        return tuple(identity), lambda state, c: tuple(step(list(state), c))

    def make_walker(self) -> GroupWalker:
        return GroupWalker(*self.group())


def build_oracle(oracle_id: str) -> Oracle:
    """'z2' | 'derived2' | 'lcs:<n>' | 'perm:<spec>' | 'derived-perm:<spec>'
    | 'zerosum-perm:<spec>'"""
    if oracle_id == "z2":
        return KernelOracle("z2")
    if oracle_id == "derived2":
        return DerivedKernelOracle("z2")
    if oracle_id.startswith("perm:"):
        return KernelOracle(oracle_id)  # parse_quotient_spec names a bad spec
    try:
        if oracle_id.startswith("lcs:"):
            if not (oracle_id[4:].isascii() and oracle_id[4:].isdigit()):
                raise ValueError("lcs:<n> takes a positive integer n")
            return DepthOracle(int(oracle_id[4:]))
        if oracle_id.startswith("derived-perm:"):
            return DerivedKernelOracle(oracle_id[len("derived-"):])
        if oracle_id.startswith("zerosum-perm:"):
            return ZeroSumKernelOracle(oracle_id[len("zerosum-"):])
    except ValueError as err:
        raise ValueError(f"bad oracle {oracle_id!r}: {err}") from None
    raise ValueError(f"unknown oracle id: {oracle_id!r}")


def engine_flags(oracle: Oracle) -> SearchFlags:
    # every oracle decides a normal subgroup, so cyclic and inverse always hold
    return SearchFlags(cyclic=True, inverse=True,
                       automorphism=oracle.automorphism_invariant)


# ----------------------------------------------------------------------
# depth-first minimum search

@dataclass(frozen=True)
class SearchSpec:
    oracle_id: str
    max_len: int
    flags: SearchFlags


@dataclass
class SearchStats:
    """Counters of one search, filled by the engine that ran it.

    tested: on search_min, the leaves tested, one per word of the target
    length that survives the prune and whose state is compared with the
    identity.  On search_mitm, the right halves looked up among the left
    ones: every reduced word of the right half's length, at each length
    searched.  verify_minimum adds none.

    key_collisions: key matches the exact state refuted, over the search
    and the re-check.  The hashed keys of lcs:n and of the derived
    oracles can collide; exact keys never do.
    """
    tested: int = 0
    key_collisions: int = 0


@dataclass(frozen=True)
class NotFoundBelow:
    """The bounded search exhausted every length <= bound with no member.
    Says nothing about longer words.  search_mitm attaches its counters as
    stats; search_min returns them beside the outcome."""
    bound: int
    stats: Optional[SearchStats] = field(default=None, compare=False,
                                         repr=False)


# reduced successors of each letter, in byte order, with exponent-sum deltas
_CHILDREN: Dict[int, Tuple[Tuple[int, int, int], ...]] = {
    c: tuple((d,) + EXPONENT_DELTA[d] for d in _ALLOWED[c])
    for c in _BYTE_ORDER
}


def _scan_prefix(oracle: Oracle, prefix: bytes, L: int, flags: SearchFlags
                 ) -> Tuple[Optional[bytes], int]:
    """Best (byte-least) member of length exactly L under this nonempty
    prefix.

    Each child is pushed on the walker and settled in its parent's loop:
    one the balance prune cuts is popped at once, a leaf is tested there,
    and only a surviving interior child costs a recursive call."""
    walker = oracle.make_walker()
    push, pop, is_member = walker.push, walker.pop, walker.is_member
    balance = oracle.requires_zero_exponent_sums and flags.any()
    cyc = flags.cyclic
    ea = eb = 0
    for c in prefix:
        push(c)
        da, db = EXPONENT_DELTA[c]
        ea += da
        eb += db
    path = bytearray(prefix)
    inv_first = inverse_letter(prefix[0])
    best: Optional[bytes] = None
    tested = 0

    def rec(depth: int, ea: int, eb: int) -> None:
        # path (depth < L letters) survived the balance prune
        nonlocal best, tested
        rem = L - depth - 1  # letters left after the child
        children = _CHILDREN[path[-1]]
        if rem:
            for c, da, db in children:
                push(c)
                ea2, eb2 = ea + da, eb + db
                if not balance or abs(ea2) + abs(eb2) <= rem:
                    path.append(c)
                    rec(depth + 1, ea2, eb2)
                    path.pop()
                pop(c)
            return
        for c, da, db in children:
            if cyc and c == inv_first:
                continue
            push(c)
            # with no letter left, the balance prune asks for both sums zero
            if not balance or (ea + da == 0 and eb + db == 0):
                tested += 1
                if is_member():
                    w = bytes(path) + bytes((c,))
                    if best is None or w < best:
                        best = w
            pop(c)

    rem = L - len(prefix)
    if not balance or abs(ea) + abs(eb) <= rem:
        if rem:
            rec(len(prefix), ea, eb)
        else:
            tested += 1
            if is_member():
                best = bytes(path)
    return best, tested


def _prefixes(L: int, flags: SearchFlags) -> List[bytes]:
    roots = b"A" if flags.automorphism else _BYTE_ORDER
    if L <= 2:
        return [bytes([r]) for r in roots]
    out = []
    for r in roots:
        for c in _ALLOWED[r]:
            out.append(bytes([r, c]))
    return out


def search_min(spec: SearchSpec) -> Tuple[object, SearchStats]:
    """Shortest member (as (length, canonical witness Word)) or NotFoundBelow.

    Sweeps lengths in increasing order; within a length, every prefix of
    _prefixes is scanned on its own walker and the hits merge by byte-least
    witness.  With no symmetry flag set the search is unpruned: no balance
    prune and no odd-length skip either.
    """
    oracle = build_oracle(spec.oracle_id)
    flags = spec.flags
    stats = SearchStats()
    for L in range(1, spec.max_len + 1):
        if oracle.requires_zero_exponent_sums and L % 2 and flags.any():
            continue
        hits = []
        for prefix in _prefixes(L, flags):
            best, tested = _scan_prefix(oracle, prefix, L, flags)
            stats.tested += tested
            if best is not None:
                hits.append(best)
        if hits:
            witness = canonical_bytes(min(hits), flags)
            return (L, Word.from_reduced(witness)), stats
    return NotFoundBelow(spec.max_len), stats


# ----------------------------------------------------------------------
# meet in the middle

# each letter's reduced successors, in byte order
_NEXT: Dict[int, List[Tuple[int, bytes]]] = {
    c: [(d, bytes([d])) for d in _ALLOWED[c]] for c in _BYTE_ORDER
}
_FIRST = [(c, bytes([c])) for c in _BYTE_ORDER]


class _Levels:
    """Every reduced word of length k in byte order, beside its state, the
    join key, for an oracle's key_group() (identity, step).  Level k+1 is
    made from level k, three letters per word in byte order.  Every level
    keeps its words and states: one store serves the later lengths of one
    search and of its re-check, and no other."""

    def __init__(self, identity, step):
        self.step = step
        self.levels: List[Tuple[List[bytes], list]] = [([b""], [identity])]
        self.distinct: Dict[int, bool] = {}  # level -> no two states equal

    def level(self, k: int) -> Tuple[List[bytes], list]:
        """(words, states) of the reduced words of length k."""
        step = self.step
        while len(self.levels) <= k:
            words, states = [], []
            add_word, add_state = words.append, states.append
            for w, state in zip(*self.levels[-1]):
                for c, letter in (_NEXT[w[-1]] if w else _FIRST):
                    add_word(w + letter)
                    add_state(step(state, c))
            self.levels.append((words, states))
        return self.levels[k]

    def _is_distinct(self, k: int) -> bool:
        """Whether no two reduced words of length k share a state, found in
        one pass the first time it is asked."""
        distinct = self.distinct.get(k)
        if distinct is None:
            states = self.level(k)[1]
            distinct = self.distinct[k] = len(set(states)) == len(states)
        return distinct

    def joins(self, length: int, split: int, roots: bytes,
              cyclic: bool) -> List[bytes]:
        """Every word uv of this length, with |u| = split and first(u) in
        roots (cyclically reduced too, with cyclic), whose halves u and
        v^-1 have equal keys, in byte order; roots other than all four
        letters need split >= 1.

        A reduced word uv is a member exactly when state(u) = state(v'),
        where v' = v^-1, and it is reduced exactly when last(u) !=
        last(v').  The left halves u go into buckets by key, and each
        right half v' is looked up once.  Two joins end early with
        nothing, exactly where the lookups would keep no pair: halves of
        equal length on a level whose states are distinct, where each u
        meets only itself and u u^-1 is not reduced, and halves that share
        no state."""
        if split == length - split and self._is_distinct(split):
            return []
        buckets: Dict[object, List[bytes]] = {}
        for u, key in zip(*self.level(split)):
            if not u or u[0] in roots:
                buckets.setdefault(key, []).append(u)
        right_words, right_keys = self.level(length - split)
        if split != length - split and buckets.keys().isdisjoint(right_keys):
            return []
        get = buckets.get
        out = []
        for v1, key in zip(right_words, right_keys):
            for u in get(key, ()):
                if u and v1 and (u[-1] == v1[-1] or (cyclic and u[0] == v1[0])):
                    continue
                out.append(u + inverse_bytes(v1))
        out.sort()
        return out


def _confirmed(oracle: Oracle, words: List[bytes], stats: SearchStats
               ) -> Iterator[bytes]:
    """The words whose exact group() state is the identity, in the given
    order; each other one is a key collision, counted in stats."""
    identity, step = oracle.group()
    for w in words:
        if reduce(step, w, identity) == identity:
            yield w
        else:
            stats.key_collisions += 1


def _key_levels(oracle: Oracle):
    """A fresh join store: utkey's UT(n, F_p) key arrays for an lcs:n
    oracle, the level store on key_group() for every other.  A level is a
    pure function of the oracle and its fixed seeds, so a search and its
    re-check may share one store and see the same bytes."""
    if isinstance(oracle, DepthOracle):
        return utkey.Levels(oracle.n)
    return _Levels(*oracle.key_group())


def search_mitm(oracle_id: str, max_len: int,
                stats: Optional[SearchStats] = None):
    """Shortest member as (length, canonical witness Word), or
    NotFoundBelow(max_len) carrying stats: the outcome of search_min under
    engine_flags, found by meeting in the middle at 3^(L/2) cost per
    length instead of 3^L.

    Joins are cyclically reduced, and it prunes what the oracle declares:
    left halves start with 'A' when it is automorphism-invariant, and odd
    lengths are skipped when members need zero exponent sums.  The first
    confirmed join, the byte-least member of the minimal length L, is
    already canonical (the least of its orbit): at length L every member
    of a normal subgroup is cyclically reduced, as a shorter conjugate
    would be a shorter member, so the members of length L are closed
    under the flags' symmetries, and under automorphism invariance their
    least starts with 'A', the smallest byte.

    Every key match is confirmed on the exact state; the refuted ones are
    counted in stats.key_collisions.  stats.tested counts the right halves
    looked up (see SearchStats).
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    oracle = build_oracle(oracle_id)
    return _meet(oracle, _key_levels(oracle), max_len,
                 SearchStats() if stats is None else stats)


def _meet(oracle: Oracle, levels, max_len: int, stats: SearchStats):
    """search_mitm's search, on an oracle and a join store."""
    automorphism = oracle.automorphism_invariant
    roots = b"A" if automorphism else _BYTE_ORDER
    for L in range(1, max_len + 1):
        if oracle.requires_zero_exponent_sums and L % 2:
            continue
        # the left halves are the smaller side: 3^(split-1) words against
        # 4*3^(L-split-1) when they start with 'A', 4*3^(split-1) otherwise
        split = (L + 1) // 2 if automorphism else L // 2
        k = L - split  # every reduced right half is looked up on both routes
        stats.tested += 4 * 3 ** (k - 1) if k else 1
        # the joins come in byte order: the first confirmed is least
        joins = levels.joins(L, split, roots, cyclic=True)
        best = next(_confirmed(oracle, joins, stats), None)
        if best is not None:
            return L, Word.from_reduced(best)
    return NotFoundBelow(max_len, stats)


def verify_minimum(oracle_id: str, found_length: int, witness: Word,
                   stats: Optional[SearchStats] = None, *,
                   levels=None) -> bool:
    """Independent re-check: the witness has the claimed length and is a
    member, and no reduced word shorter than it is.

    The shorter words are covered by an unpruned meet in the middle at
    every length 1..found_length-1, odd lengths included, split at half
    the length: all four first letters, no symmetry flags, no balance or
    cyclic prune.  Each shorter word is tested once, as one pair of
    halves, and the pairs are found by key lookup, so the cost is about
    3^(found_length/2) rather than 3^(found_length-1).  It joins on the
    same keys as search_mitm and confirms each match on the exact
    group() state.  levels is the join store: girth passes the one its
    search filled, whose levels hold the same bytes a fresh one would
    build, and called alone it makes a fresh _key_levels(oracle).
    Returns False at the first shorter member.
    """
    oracle = build_oracle(oracle_id)
    identity, step = oracle.group()
    if (len(witness) != found_length or not witness
            or reduce(step, witness.data, identity) != identity):
        return False
    levels = _key_levels(oracle) if levels is None else levels
    stats = SearchStats() if stats is None else stats
    for length in range(1, found_length):
        joins = levels.joins(length, length // 2, _BYTE_ORDER, False)
        for _ in _confirmed(oracle, joins, stats):
            return False
    return True


# ----------------------------------------------------------------------
# girth and the alpha table

@dataclass(frozen=True)
class GirthResult:
    value: int
    witness: Word
    stats: Optional[SearchStats] = field(default=None, compare=False,
                                         repr=False)

    def __post_init__(self):
        if len(self.witness) != self.value:
            raise ValueError("witness length disagrees with girth value")


def girth(oracle_id: str, max_len: int, reverify: bool = True
          ) -> Union[GirthResult, NotFoundBelow]:
    """Length of the shortest nontrivial member, by search_mitm's meet in
    the middle, with the byte-least member of that length in canonical
    form.  Either outcome carries the counters as `stats`.  A hit is
    re-verified by verify_minimum unless reverify is off; a disagreement
    raises AssertionError.  NotFoundBelow is an explicit outcome, never an
    absence claim beyond the bound.  The search and the re-check share
    one join store, made here and dropped on return."""
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    oracle = build_oracle(oracle_id)
    levels = _key_levels(oracle)
    stats = SearchStats()
    outcome = _meet(oracle, levels, max_len, stats)
    if isinstance(outcome, NotFoundBelow):
        return outcome
    length, witness = outcome
    if reverify and not verify_minimum(oracle_id, length, witness, stats,
                                       levels=levels):
        raise AssertionError(
            f"pruned search and independent scan disagree for {oracle_id} "
            f"at length {length}")
    return GirthResult(value=length, witness=witness, stats=stats)


class NotFoundBelowError(RuntimeError):
    def __init__(self, bound: int):
        super().__init__(f"no member found at any length <= {bound}")
        self.bound = bound


@dataclass(frozen=True)
class AlphaEntry:
    n: int
    value: int
    witness: Word
    # key matches the exact check refuted, over the search and the re-check
    key_collisions: int = field(default=0, compare=False)


def alpha(n: int, max_len: int, D: int) -> AlphaEntry:
    """Shortest word at lower-central depth >= n, exact below max_len: the
    girth of lcs:n, whose NotFoundBelow raises NotFoundBelowError here.
    The entry counts the key collisions the search and re-check refuted."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if D < n:
        raise ValueError("truncation degree must be >= n")
    outcome = girth(f"lcs:{n}", max_len)
    if isinstance(outcome, NotFoundBelow):
        raise NotFoundBelowError(outcome.bound)
    return AlphaEntry(n=n, value=outcome.value, witness=outcome.witness,
                      key_collisions=outcome.stats.key_collisions)


def alpha_table(n_max: int, max_len: int) -> List[AlphaEntry]:
    entries = []
    for n in range(1, n_max + 1):
        entries.append(alpha(n, max_len, max(n, 2)))
    check_alpha_table(entries)
    return entries


def check_alpha_table(entries: Sequence[AlphaEntry]) -> None:
    by_n = {e.n: e for e in entries}
    prev = None
    for n in sorted(by_n):
        e = by_n[n]
        if e.value < n:
            raise AssertionError(f"alpha({n}) = {e.value} < {n}")
        if prev is not None and e.value < prev.value:
            raise AssertionError("alpha must be nondecreasing")
        prev = e
    for n, e in by_n.items():
        for m, f in by_n.items():
            g = by_n.get(n * m)
            if g is not None and g.value > e.value * f.value:
                raise AssertionError(
                    f"alpha({n*m}) = {g.value} violates submultiplicativity "
                    f"<= alpha({n})*alpha({m}) = {e.value * f.value}")
