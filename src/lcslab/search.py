"""Exhaustive shortest-witness search over reduced words.

The engine sweeps lengths in increasing order; each sweep walks the radix
tree of reduced words (no inverse-adjacency, enforced at branch time) and
tests membership at the leaves on a GroupWalker, one stack of prefix
states for every oracle: the image of the prefix in a quotient, in Z^2 x
a quotient, the image plus projected Fox derivatives, or a truncated
Magnus expansion.  Pruning is driven by invariances the oracle itself
declares:

  * conjugation-invariant oracles only need cyclically reduced words
    (the shortest member of a conjugation-closed set is cyclically
    reduced, and string rotations of members are members);
  * oracles invariant under the eight letter automorphisms only need
    words starting with 'A', the smallest byte;
  * oracles whose members must have both exponent sums zero admit the
    balance prune |ea| + |eb| <= letters remaining, and even lengths only.

Work is sharded by word prefix; shard results merge by (length, bytes)
minimum, so the outcome is identical for any shard count or scheduling.
Long searches checkpoint completed (length, prefix) subtrees to a
versioned binary file and can resume after interruption.

A found minimum is re-checked by verify_minimum, which shares none of the
above: one unpruned walk over every shorter reduced word.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, field
from multiprocessing import Pool
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .magnus import _check_degree, _mul_letter_inplace, _one_rows
from .quotients import parse_quotient_spec
from .words import (LETTER_A, LETTER_AI, LETTER_B, Word, inverse_bytes,
                    inverse_letter)

_BYTE_ORDER = b"ABab"  # enumeration order = byte order, so streams are lexicographic
_ALLOWED: Dict[int, bytes] = {
    c: bytes(d for d in _BYTE_ORDER if d != inverse_letter(c)) for c in _BYTE_ORDER
}
_DELTA = {ord("a"): (1, 0), ord("A"): (-1, 0), ord("b"): (0, 1), ord("B"): (0, -1)}


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


def enumerate_words(max_len: int, flags: SearchFlags = SearchFlags()) -> Iterator[Word]:
    """Every reduced word of length 1..max_len with pruning off; exactly one
    representative (the byte-least member) of each symmetry class otherwise.
    Nondecreasing length, lexicographic within a length."""
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    path = bytearray()

    def rec(depth: int, L: int) -> Iterator[Word]:
        if depth == L:
            w = bytes(path)
            if not flags.any() or w == canonical_bytes(w, flags):
                yield Word.from_reduced(w)
            return
        for c in (_ALLOWED[path[-1]] if path else _BYTE_ORDER):
            path.append(c)
            yield from rec(depth + 1, L)
            path.pop()

    for L in range(1, max_len + 1):
        yield from rec(0, L)


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
    """

    __slots__ = ("identity", "step", "stack")

    def __init__(self, identity, step):
        self.identity = identity
        self.step = step
        self.stack = [identity]

    def push(self, letter: int) -> None:
        self.stack.append(self.step(self.stack[-1], letter))

    def pop(self, letter: int) -> None:
        self.stack.pop()

    def is_member(self) -> bool:
        return len(self.stack) > 1 and self.stack[-1] == self.identity


class Oracle:
    """A membership predicate on nontrivial reduced words, with declared
    invariances (the engine prunes only on what is declared) and a
    GroupWalker factory."""

    oracle_id: str = "abstract"
    conjugation_invariant = False
    inversion_invariant = False
    automorphism_invariant = False
    requires_zero_exponent_sums = False

    def make_walker(self) -> GroupWalker:
        raise NotImplementedError

    def member(self, w: Word) -> bool:
        """Direct evaluation of one word on a fresh walker."""
        walker = self.make_walker()
        for c in w.data:
            walker.push(c)
        return walker.is_member()


class KernelOracle(Oracle):
    def __init__(self, quotient_spec: str):
        self.oracle_id = quotient_spec
        self.q = parse_quotient_spec(quotient_spec)
        self.conjugation_invariant = True  # kernels are normal
        self.inversion_invariant = True    # subgroups are inverse-closed
        self.automorphism_invariant = self.q.symmetric_presentation
        if quotient_spec == "z2":
            self.requires_zero_exponent_sums = True
            self.automorphism_invariant = True

    def make_walker(self) -> GroupWalker:
        # state: the image of the prefix in the quotient
        multiply, images = self.q.multiply, self.q.letter_images
        return GroupWalker(self.q.identity(),
                           lambda p, c: multiply(p, images[c]))


def _bump(table: Dict, key, delta: int) -> Dict:
    """A copy of table with delta added at key; zeros are never stored."""
    out = dict(table)
    c = out.get(key, 0) + delta
    if c:
        out[key] = c
    else:
        del out[key]
    return out


class DerivedKernelOracle(Oracle):
    def __init__(self, quotient_spec: str):
        self.oracle_id = ("derived2" if quotient_spec == "z2"
                          else f"derived-{quotient_spec}")
        self.q = parse_quotient_spec(quotient_spec)
        self.conjugation_invariant = True
        self.inversion_invariant = True
        self.automorphism_invariant = (self.q.symmetric_presentation
                                       or quotient_spec == "z2")
        # derived subgroups consist of products of commutators
        self.requires_zero_exponent_sums = True

    def make_walker(self) -> GroupWalker:
        # state: the image p plus both Fox derivatives projected into the
        # group ring of the quotient (see quotients.project_fox), as dicts
        # copied on write.  A letter adds +p, an inverse letter -(p after it).
        multiply, images = self.q.multiply, self.q.letter_images

        def step(state, c):
            p, da, db = state
            p2 = multiply(p, images[c])
            if c == LETTER_A:
                da = _bump(da, p, 1)
            elif c == LETTER_AI:
                da = _bump(da, p2, -1)
            elif c == LETTER_B:
                db = _bump(db, p, 1)
            else:
                db = _bump(db, p2, -1)
            return p2, da, db

        return GroupWalker((self.q.identity(), {}, {}), step)


class ZeroSumKernelOracle(KernelOracle):
    """Kernel members with both exponent sums zero.

    The extra constraint is conjugation- and inversion-invariant, so the
    kernel pruning flags carry over, and it entitles the engine to the
    balance prune.
    """

    def __init__(self, quotient_spec: str):
        super().__init__(quotient_spec)
        self.oracle_id = f"zerosum-{quotient_spec}"
        self.requires_zero_exponent_sums = True

    def make_walker(self) -> GroupWalker:
        # state: both exponent sums and the image, the identity in Z^2 x Q
        multiply, images = self.q.multiply, self.q.letter_images

        def step(state, c):
            ea, eb, p = state
            da, db = _DELTA[c]
            return ea + da, eb + db, multiply(p, images[c])

        return GroupWalker((0, 0, self.q.identity()), step)


class DepthOracle(Oracle):
    """Members: nontrivial words lying at lower-central depth >= n.

    Truncating at degree n-1 decides this exactly; the terms of the
    series either vanish below n or they do not.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("depth threshold must be >= 1")
        _check_degree(max(1, n - 1))
        self.oracle_id = f"lcs:{n}"
        self.n = n
        self.conjugation_invariant = True
        self.inversion_invariant = True
        self.automorphism_invariant = True  # the series terms are fully invariant
        self.requires_zero_exponent_sums = n >= 2  # degree-1 terms are the sums

    def make_walker(self) -> GroupWalker:
        # state: the Magnus expansion truncated at degree n-1 (none at all
        # for n = 1), which is 1 exactly when depth >= n
        D = self.n - 1

        def step(rows, c):
            rows = [row[:] for row in rows]
            _mul_letter_inplace(rows, c, D)
            return rows

        return GroupWalker(_one_rows(D), step)


def build_oracle(oracle_id: str) -> Oracle:
    """'z2' | 'derived2' | 'lcs:<n>' | 'perm:<spec>' | 'derived-perm:<spec>'
    | 'zerosum-perm:<spec>'"""
    if oracle_id == "z2":
        return KernelOracle("z2")
    if oracle_id == "derived2":
        return DerivedKernelOracle("z2")
    if oracle_id.startswith("lcs:"):
        return DepthOracle(int(oracle_id[4:]))
    if oracle_id.startswith("perm:"):
        return KernelOracle(oracle_id)
    if oracle_id.startswith("derived-perm:"):
        return DerivedKernelOracle(oracle_id[len("derived-"):])
    if oracle_id.startswith("zerosum-perm:"):
        return ZeroSumKernelOracle(oracle_id[len("zerosum-"):])
    raise ValueError(f"unknown oracle id: {oracle_id!r}")


def engine_flags(oracle: Oracle) -> SearchFlags:
    return SearchFlags(cyclic=oracle.conjugation_invariant,
                       inverse=oracle.inversion_invariant,
                       automorphism=oracle.automorphism_invariant)


# ----------------------------------------------------------------------
# sharded minimum search

@dataclass(frozen=True)
class SearchSpec:
    oracle_id: str
    max_len: int
    flags: SearchFlags
    checkpoint: Optional[str] = None

    def fingerprint(self) -> dict:
        return {"oracle": self.oracle_id, "max_len": self.max_len,
                "cyclic": self.flags.cyclic, "inverse": self.flags.inverse,
                "automorphism": self.flags.automorphism}


@dataclass
class SearchStats:
    tested: int = 0
    lengths_completed: List[int] = field(default_factory=list)
    shards: int = 1
    workers: int = 1
    resumed_tasks: int = 0


@dataclass(frozen=True)
class NotFoundBelow:
    """The bounded search exhausted every length <= bound with no member.
    Says nothing about longer words.  girth() attaches the engine
    counters as stats; search_min returns them beside the outcome."""
    bound: int
    stats: Optional[SearchStats] = field(default=None, compare=False,
                                         repr=False)


def _scan_prefix(oracle: Oracle, prefix: bytes, L: int, flags: SearchFlags
                 ) -> Tuple[Optional[bytes], int]:
    """Best (byte-least) member of length exactly L under this prefix."""
    walker = oracle.make_walker()
    balance = oracle.requires_zero_exponent_sums and flags.any()
    cyc = flags.cyclic
    ea = eb = 0
    for c in prefix:
        walker.push(c)
        da, db = _DELTA[c]
        ea += da
        eb += db
    path = bytearray(prefix)
    inv_first = inverse_letter(prefix[0]) if prefix else None
    best: Optional[bytes] = None
    tested = 0

    def rec(depth: int, ea: int, eb: int) -> None:
        nonlocal best, tested
        rem = L - depth
        if balance and abs(ea) + abs(eb) > rem:
            return
        if rem == 0:
            tested += 1
            if walker.is_member():
                w = bytes(path)
                if best is None or w < best:
                    best = w
            return
        for c in _ALLOWED[path[-1]] if path else _BYTE_ORDER:
            if cyc and rem == 1 and c == inv_first:
                continue
            da, db = _DELTA[c]
            path.append(c)
            walker.push(c)
            rec(depth + 1, ea + da, eb + db)
            walker.pop(c)
            path.pop()

    rec(len(prefix), ea, eb)
    return best, tested


_WORKER_ORACLES: Dict[str, Oracle] = {}


def _pool_task(args):
    oracle_id, prefix, L, flags = args
    oracle = _WORKER_ORACLES.get(oracle_id)
    if oracle is None:
        oracle = _WORKER_ORACLES[oracle_id] = build_oracle(oracle_id)
    best, tested = _scan_prefix(oracle, prefix, L, flags)
    return prefix, L, best, tested


def _prefixes(L: int, flags: SearchFlags) -> List[bytes]:
    roots = b"A" if flags.automorphism else _BYTE_ORDER
    if L <= 2:
        return [bytes([r]) for r in roots]
    out = []
    for r in roots:
        for c in _ALLOWED[r]:
            out.append(bytes([r, c]))
    return out


_CKPT_MAGIC = b"LCSSRCH"
_CKPT_VERSION = 1


def _load_checkpoint(path: str, fingerprint: dict) -> Dict[Tuple[int, bytes], Optional[bytes]]:
    if not path or not os.path.exists(path):
        return {}
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < len(_CKPT_MAGIC) + 8 or raw[:len(_CKPT_MAGIC)] != _CKPT_MAGIC:
        raise ValueError(f"checkpoint corruption: bad magic in {path}")
    off = len(_CKPT_MAGIC)
    version, length = struct.unpack_from("<II", raw, off)
    if version != _CKPT_VERSION:
        raise ValueError(f"checkpoint corruption: unsupported version {version}")
    payload = raw[off + 8: off + 8 + length]
    if len(payload) != length:
        raise ValueError(f"checkpoint corruption: truncated payload in {path}")
    doc = json.loads(payload.decode("utf-8"))
    if doc.get("spec") != fingerprint:
        raise ValueError("checkpoint does not match this search specification")
    done = {}
    for entry in doc["completed"]:
        best = entry["best"]
        done[(entry["length"], entry["prefix"].encode("ascii"))] = (
            best.encode("ascii") if best is not None else None)
    return done


def _save_checkpoint(path: str, fingerprint: dict,
                     done: Dict[Tuple[int, bytes], Optional[bytes]]) -> None:
    doc = {"spec": fingerprint,
           "completed": [
               {"length": L, "prefix": p.decode("ascii"),
                "best": b.decode("ascii") if b is not None else None}
               for (L, p), b in sorted(done.items())]}
    payload = json.dumps(doc, sort_keys=True).encode("utf-8")
    blob = _CKPT_MAGIC + struct.pack("<II", _CKPT_VERSION, len(payload)) + payload
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(blob)
        fh.flush()
        os.fsync(fh.fileno())  # the rename must never expose a torn file
    os.replace(tmp, path)


def search_min(spec: SearchSpec, workers: int = 1) -> Tuple[object, SearchStats]:
    """Shortest member (as (length, canonical witness Word)) or NotFoundBelow.

    Sweeps lengths in increasing order; within a length, all prefix tasks
    complete and merge by byte-least witness, so results do not depend on
    worker scheduling or shard count.  With no symmetry flag set the search
    is unpruned: no balance prune and no odd-length skip either.
    """
    oracle = build_oracle(spec.oracle_id)
    flags = spec.flags
    stats = SearchStats(workers=max(1, workers))
    done = _load_checkpoint(spec.checkpoint, spec.fingerprint()) if spec.checkpoint else {}
    stats.resumed_tasks = len(done)
    pool = Pool(workers) if workers > 1 else None
    try:
        for L in range(1, spec.max_len + 1):
            if oracle.requires_zero_exponent_sums and L % 2 and flags.any():
                stats.lengths_completed.append(L)
                continue
            prefixes = [p for p in _prefixes(L, flags) if len(p) <= L]
            stats.shards = max(stats.shards, len(prefixes))
            todo = [(spec.oracle_id, p, L, flags)
                    for p in prefixes if (L, p) not in done]
            results = pool.imap_unordered(_pool_task, todo) if pool is not None \
                else map(_pool_task, todo)
            pending_save = 0
            for prefix, length, best, tested in results:
                done[(length, prefix)] = best
                stats.tested += tested
                pending_save += 1
                # checkpoint granularity: completed prefix subtrees, batched
                if spec.checkpoint and pending_save >= 8:
                    _save_checkpoint(spec.checkpoint, spec.fingerprint(), done)
                    pending_save = 0
            if spec.checkpoint and pending_save:
                _save_checkpoint(spec.checkpoint, spec.fingerprint(), done)
            stats.lengths_completed.append(L)
            hits = [b for (length, _), b in done.items()
                    if length == L and b is not None]
            if hits:
                witness = min(hits)
                return (L, Word.from_reduced(canonical_bytes(witness, flags))), stats
    finally:
        if pool is not None:
            pool.close()
            pool.join()
    return NotFoundBelow(spec.max_len), stats


def verify_minimum(oracle_id: str, found_length: int, witness: Word) -> bool:
    """Independent single-threaded re-check: the witness has the claimed
    length and is a member, and no reduced word shorter than it is.

    The shorter words are covered by one unpruned push/pop walk over the
    tree of reduced words of length 1..found_length-1, testing membership
    at every node, so each word costs one push on a single walker.  It
    shares nothing with the pruned engine: no symmetry flags, no balance
    or cyclic prune, no prefix shards and no odd-length skip.  Returns
    False at the first shorter member.
    """
    oracle = build_oracle(oracle_id)
    if len(witness) != found_length or not oracle.member(witness):
        return False
    walker = oracle.make_walker()
    push, pop, is_member = walker.push, walker.pop, walker.is_member
    deepest = found_length - 1

    def shorter_member(letters: bytes, depth: int) -> bool:
        for c in letters:
            push(c)
            if is_member() or (depth < deepest
                               and shorter_member(_ALLOWED[c], depth + 1)):
                return True
            pop(c)
        return False

    return deepest < 1 or not shorter_member(_BYTE_ORDER, 1)


# ----------------------------------------------------------------------
# alpha table

class NotFoundBelowError(RuntimeError):
    def __init__(self, bound: int):
        super().__init__(f"no member found at any length <= {bound}")
        self.bound = bound


@dataclass(frozen=True)
class AlphaEntry:
    n: int
    value: int
    witness: Word
    max_len: int
    degree: int


def alpha(n: int, max_len: int, D: int, workers: int = 1,
          checkpoint: Optional[str] = None) -> AlphaEntry:
    """Shortest word at lower-central depth >= n, exact below max_len."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if D < n:
        raise ValueError("truncation degree must be >= n")
    oracle = build_oracle(f"lcs:{n}")
    spec = SearchSpec(oracle_id=oracle.oracle_id, max_len=max_len,
                      flags=engine_flags(oracle), checkpoint=checkpoint)
    outcome, _ = search_min(spec, workers=workers)
    if isinstance(outcome, NotFoundBelow):
        raise NotFoundBelowError(outcome.bound)
    length, witness = outcome
    return AlphaEntry(n=n, value=length, witness=witness, max_len=max_len,
                      degree=D)


def alpha_table(n_max: int, max_len: int, workers: int = 1) -> List[AlphaEntry]:
    entries = []
    for n in range(1, n_max + 1):
        entries.append(alpha(n, max_len, max(n, 2), workers=workers))
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
