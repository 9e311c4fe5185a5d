"""Tracing for the benchmark's traced run, kept outside the program.

`Tracer.install` replaces layer functions with timing and counting shims
wherever ``lcslab`` modules bind them (so callers inside the package see
them too) and wraps every walker an oracle makes in a counting proxy.
`Tracer.uninstall` puts every original object back.  Spans (name, start,
end, parent, query id) stay in memory until the benchmark writes them out.

Layer spans: search_min, verify_minimum and alpha (search); girth (girth);
build, check_no_cancellation and check_identities (construction);
commutator, conjugate and concat (words); expand (magnus);
reduce_with_witnesses (nielsen); seed_pool_obstruction, estimate_L and
certify_seed (almostlaw).  Walker pushes and leaf tests are counted, and
push, pop and leaf-test time is summed, per oracle kind and phase, without a
span each.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

from lcslab import almostlaw, construction, girth, magnus, nielsen, search, words

_clock = time.perf_counter

# oracle class -> walker kind; the kind names the layer that owns the walker
WALKER_KINDS = {
    "DepthOracle": "magnus",
    "KernelOracle": "kernel",
    "DerivedKernelOracle": "derived",
    "ZeroSumKernelOracle": "zerosum",
}
QUOTIENT_KINDS = ("kernel", "derived", "zerosum")

# the phase a shimmed call puts the calls below it in
_PHASES = {"search_min": "search", "verify_minimum": "reverify",
           "estimate_L": "sample", "certify_seed": "certify"}

# the module each traced function is found in first; install patches every
# lcslab module attribute bound to the same object
_TARGETS = (
    (search, "search_min"), (search, "verify_minimum"), (search, "alpha"),
    (girth, "girth"),
    (construction, "build"), (construction, "check_no_cancellation"),
    (construction, "check_identities"),
    (words, "commutator"), (words, "conjugate"), (words, "concat"),
    (magnus, "expand"),
    (nielsen, "reduce_with_witnesses"),
    (almostlaw, "seed_pool_obstruction"), (almostlaw, "estimate_L"),
    (almostlaw, "certify_seed"), (almostlaw, "batch_evaluate"),
)


def _lcslab_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "lcslab" or name.startswith("lcslab."))]


def binding_snapshot() -> Dict[Tuple[str, str], int]:
    """Identity of every function and class attribute in lcslab, for
    checking that uninstall restored the original objects."""
    snap = {}
    for mod in _lcslab_modules():
        for name, value in vars(mod).items():
            snap[(mod.__name__, name)] = id(value)
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    snap[(mod.__name__, f"{name}.{attr}")] = id(member)
    return snap


class _Cell:
    """Walker work of one kind in one phase."""

    __slots__ = ("pushes", "leaves", "seconds")

    def __init__(self):
        self.pushes = self.leaves = 0
        self.seconds = 0.0


class _TracedWalker:
    """Counting proxy around a walker; times push, pop and the leaf test."""

    __slots__ = ("_inner", "_cell")

    def __init__(self, inner, cell: _Cell):
        self._inner = inner
        self._cell = cell

    def push(self, letter):
        t = _clock()
        self._inner.push(letter)
        cell = self._cell
        cell.seconds += _clock() - t
        cell.pushes += 1

    def pop(self, letter):
        t = _clock()
        self._inner.pop(letter)
        self._cell.seconds += _clock() - t

    def is_member(self):
        t = _clock()
        out = self._inner.is_member()
        cell = self._cell
        cell.seconds += _clock() - t
        cell.leaves += 1
        return out


class Tracer:
    """Spans, counts and walker work of one traced pass."""

    def __init__(self):
        self.spans: List[tuple] = []       # (name, start, end, parent, query)
        # open spans: [index, name, parent, start, child_s, walker_s0,
        #              child_walker_s]
        self._stack: List[list] = []
        self._phase = "none"
        self.query: Optional[int] = None
        self.cells: Dict[Tuple[str, str], _Cell] = defaultdict(_Cell)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self._patches: List[tuple] = []

    # -- spans ----------------------------------------------------------

    def _walker_seconds(self) -> float:
        return sum(c.seconds for c in self.cells.values())

    def open(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else None
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append([index, name, parent, _clock(), 0.0,
                            self._walker_seconds(), 0.0])

    def close(self) -> None:
        """Close the innermost span.  Its self time excludes its child spans
        and the walker time spent directly inside it."""
        end = _clock()
        index, name, parent, start, child_s, walker_s0, child_walker_s = \
            self._stack.pop()
        duration = end - start
        walker_s = self._walker_seconds() - walker_s0
        self.spans[index] = (name, start, end, parent, self.query)
        self.total_s[name] += duration
        self.self_s[name] += (duration - child_s
                              - (walker_s - child_walker_s))
        if self._stack:
            self._stack[-1][4] += duration
            self._stack[-1][6] += walker_s

    # -- shims ----------------------------------------------------------

    def _shim(self, name: str, fn: Callable, after: Optional[Callable]):
        tracer = self
        phase = _PHASES.get(name)

        def shim(*args, **kwargs):
            saved = tracer._phase
            if phase is not None:
                tracer._phase = phase
            tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close()
                tracer._phase = saved
            if after is not None:
                after(args, out)
            return out

        shim.__wrapped__ = fn
        shim.__name__ = fn.__name__
        return shim

    def _count_search(self, args, out):
        outcome, stats = out
        bound = (outcome.bound if isinstance(outcome, search.NotFoundBelow)
                 else outcome[0])
        self.counts["search.reported_leaves"] += stats.tested
        # reduced words of every length swept: sum of 4*3^(L-1), L = 1..bound
        self.counts["search.leaf_share_base"] += 2 * (3 ** bound - 1)

    def _count_expand(self, args, out):
        w, D = args
        self.counts["magnus.expand_calls"] += 1
        self.counts["magnus.expand_letters"] += len(w)
        self.counts["magnus.expand_slot_updates"] += len(w) << (D + 1)

    def _count_build(self, args, out):
        self.counts["construction.letters"] += sum(
            len(out.a(n)) + len(out.b(n)) for n in range(1, out.n_max + 1))

    def _count_word(self, args, out):
        self.counts["words.letters"] += len(out[0] if isinstance(out, tuple) else out)

    def _count_nielsen(self, args, out):
        self.counts["nielsen.gen_letters"] += sum(len(g) for g in args[0])

    def _batch_shim(self, fn: Callable):
        tracer = self

        def batch_evaluate(w, us, vs):
            if tracer._phase == "sample":
                tracer.counts["almostlaw.sample_letter_evals"] += len(us) * len(w)
            elif tracer._phase == "certify":
                tracer.counts["almostlaw.certify_pairs"] += len(us)
            return fn(w, us, vs)

        batch_evaluate.__wrapped__ = fn
        return batch_evaluate

    def _walker_factory(self, make_walker: Callable, kind: str):
        tracer = self

        def traced_make_walker(oracle):
            return _TracedWalker(make_walker(oracle),
                                 tracer.cells[(kind, tracer._phase)])

        traced_make_walker.__wrapped__ = make_walker
        return traced_make_walker

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        after = {"search_min": self._count_search, "expand": self._count_expand,
                 "build": self._count_build, "commutator": self._count_word,
                 "conjugate": self._count_word, "concat": self._count_word,
                 "reduce_with_witnesses": self._count_nielsen}
        modules = _lcslab_modules()
        for home, name in _TARGETS:
            orig = getattr(home, name)
            shim = (self._batch_shim(orig) if name == "batch_evaluate"
                    else self._shim(name, orig, after.get(name)))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, attr, orig))
                        setattr(mod, attr, shim)
        for cls in _oracle_classes():
            kind = WALKER_KINDS.get(cls.__name__)
            if kind is not None and "make_walker" in vars(cls):
                orig = vars(cls)["make_walker"]
                self._patches.append((cls, "make_walker", orig))
                cls.make_walker = self._walker_factory(orig, kind)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- metrics --------------------------------------------------------

    def _walker(self, kinds, phases=("search", "reverify")) -> _Cell:
        total = _Cell()
        for (kind, phase), c in self.cells.items():
            if kind in kinds and phase in phases:
                total.pushes += c.pushes
                total.leaves += c.leaves
                total.seconds += c.seconds
        return total

    def metrics(self) -> Dict[str, float]:
        """Per-layer numbers of everything traced so far (one pass)."""
        all_kinds = ("magnus",) + QUOTIENT_KINDS
        found = self._walker(all_kinds, ("search",))
        reverify = self._walker(all_kinds, ("reverify",))
        depth = self._walker(("magnus",))
        quot = self._walker(QUOTIENT_KINDS)
        c, t, s = self.counts, self.total_s, self.self_s
        search_s = t["search_min"]
        expand_s = t["expand"]
        build_s = t["build"]
        words_s = t["commutator"] + t["conjugate"] + t["concat"]
        base = c["search.leaf_share_base"]
        m = {
            "search.leaves": found.leaves,
            "search.nodes": found.pushes,
            "search.leaf_share": _ratio(found.leaves, base),
            "search.leaf_share_base": base,
            "search.leaves_per_s": _ratio(found.leaves, search_s),
            "search.nodes_per_s": _ratio(found.pushes, search_s),
            "search.search_min_s": search_s,
            "search.self_s": s["search_min"] + s["verify_minimum"] + s["alpha"],
            "search.reverify_s": t["verify_minimum"],
            "search.reverify_words": reverify.leaves,
            "search.reverify_words_per_s": _ratio(reverify.leaves,
                                                  t["verify_minimum"]),
            "magnus.walker_ops": depth.pushes,
            "magnus.walker_s": depth.seconds,
            "magnus.walker_ops_per_s": _ratio(depth.pushes, depth.seconds),
            "magnus.expand_calls": c["magnus.expand_calls"],
            "magnus.expand_letters": c["magnus.expand_letters"],
            "magnus.expand_slot_updates": c["magnus.expand_slot_updates"],
            "magnus.expand_s": expand_s,
            "magnus.expand_slot_updates_per_s": _ratio(
                c["magnus.expand_slot_updates"], expand_s),
            "quotients.kernel_ops": self._walker(("kernel",)).pushes,
            "quotients.derived_ops": self._walker(("derived",)).pushes,
            "quotients.zerosum_ops": self._walker(("zerosum",)).pushes,
            "quotients.walker_s": quot.seconds,
            "quotients.walker_ops_per_s": _ratio(quot.pushes, quot.seconds),
            "construction.build_s": build_s,
            "construction.letters": c["construction.letters"],
            "construction.check_s": (t["check_no_cancellation"]
                                     + t["check_identities"]),
            "words.letters": c["words.letters"],
            "words.arith_s": words_s,
            "words.letters_per_s": _ratio(c["words.letters"], words_s),
            "nielsen.reduce_s": t["reduce_with_witnesses"],
            "nielsen.gen_letters": c["nielsen.gen_letters"],
            "nielsen.gen_letters_per_s": _ratio(c["nielsen.gen_letters"],
                                                t["reduce_with_witnesses"]),
            "almostlaw.sample_letter_evals": c["almostlaw.sample_letter_evals"],
            "almostlaw.sample_s": t["estimate_L"],
            "almostlaw.sample_letter_evals_per_s": _ratio(
                c["almostlaw.sample_letter_evals"], t["estimate_L"]),
            "almostlaw.certify_pairs": c["almostlaw.certify_pairs"],
            "almostlaw.certify_s": t["certify_seed"],
            "almostlaw.certify_pairs_per_s": _ratio(
                c["almostlaw.certify_pairs"], t["certify_seed"]),
            "girth.self_s": s["girth"],
        }
        return m

    def leaf_counts_agree(self) -> bool:
        """The leaves the proxies counted equal the engine's own
        SearchStats.tested totals."""
        all_kinds = ("magnus",) + QUOTIENT_KINDS
        return (self._walker(all_kinds, ("search",)).leaves
                == self.counts["search.reported_leaves"])


def unit(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_share", "_frac")):
        return "fraction"
    return "count"


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _oracle_classes():
    seen, todo = [], [search.Oracle]
    while todo:
        cls = todo.pop()
        for sub in cls.__subclasses__():
            if sub not in seen:
                seen.append(sub)
                todo.append(sub)
    return seen


def median_metrics(per_pass: List[Dict[str, float]]) -> Dict[str, float]:
    """Counts from the first pass (they repeat exactly), other values as
    medians over the traced passes."""
    out = {}
    for name in per_pass[0]:
        if unit(name) == "count":
            out[name] = per_pass[0][name]
        else:
            out[name] = statistics.median(p[name] for p in per_pass)
    return out
