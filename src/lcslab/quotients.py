"""Quotients of the rank-2 free group and membership tests for the kernel
and its derived subgroup.

A normal subgroup is presented as the kernel of a homomorphism onto a
concrete group: either a finite permutation group or Z^2 (exponent sums,
whose kernel is the commutator subgroup).  Membership in the kernel is
evaluation; membership in [kernel, kernel] projects both Fox derivatives
into the integer group ring of the quotient and requires them to vanish,
which decides it exactly.  A projected derivative is a plain {g: coeff}
dict, no zero stored, so it vanishes exactly when the dict is empty.

A permutation on n <= 256 points is stored as n bytes, the image of
point i at index i, so a product is one bytes.translate call and elements
hash and compare as bytes.  permutation_from_cycles and cycles_string
speak tuples and cycle notation; PermutationQuotient converts.  Exponent
sums stay tuples.

in_lambda and in_derived_lambda evaluate one word from scratch.  The
search oracles (search.KernelOracle, search.DerivedKernelOracle) carry
the same image and projected derivatives letter by letter, as the states
of a search.GroupWalker through letter_step, the same product with the
letters' tables made once; the tests check one against the other.
"""

from __future__ import annotations

from typing import (Callable, Dict, Hashable, List, Optional, Sequence,
                    Tuple)

from .words import (
    EXPONENT_DELTA,
    LETTER_A,
    LETTER_AI,
    LETTER_B,
    LETTER_BI,
    Word,
)


class QuotientGroup:
    """Target of a homomorphism out of the free group on a, b.

    Elements are hashable canonical values; subclasses provide the
    arithmetic.  The kernel is automatically normal, so these quotients
    are exactly the normal subgroups this package ever needs.
    """

    def identity(self) -> Hashable:
        raise NotImplementedError

    def multiply(self, x: Hashable, y: Hashable) -> Hashable:
        raise NotImplementedError

    # letter -> image, including inverse letters; filled by subclasses
    letter_images: Dict[int, Hashable]

    def letter_step(self) -> Callable[[Hashable, int], Hashable]:
        """(x, letter) -> x times the letter's image."""
        multiply, images = self.multiply, self.letter_images
        return lambda x, c: multiply(x, images[c])

    def image(self, w: Word) -> Hashable:
        g = self.identity()
        for c in w.data:
            g = self.multiply(g, self.letter_images[c])
        return g

    def generated_elements(self, limit: int = 100000) -> frozenset:
        """Closure of the generator images (finite kinds only)."""
        seen = {self.identity()}
        frontier = [self.identity()]
        gens = [self.letter_images[LETTER_A], self.letter_images[LETTER_B],
                self.letter_images[LETTER_AI], self.letter_images[LETTER_BI]]
        while frontier:
            g = frontier.pop()
            for s in gens:
                h = self.multiply(g, s)
                if h not in seen:
                    if len(seen) >= limit:
                        raise ValueError("closure exceeds enumeration limit")
                    seen.add(h)
                    frontier.append(h)
        return frozenset(seen)

    def spec_string(self) -> str:
        raise NotImplementedError


class FreeAbelianQuotient(QuotientGroup):
    """F2 -> Z^2 by exponent sums; the kernel is the commutator subgroup."""

    letter_images = EXPONENT_DELTA

    def identity(self):
        return (0, 0)

    def multiply(self, x, y):
        return (x[0] + y[0], x[1] + y[1])

    def letter_step(self):
        def step(x, c):  # one call per letter: add its exponent sums
            da, db = EXPONENT_DELTA[c]
            return x[0] + da, x[1] + db
        return step

    def spec_string(self) -> str:
        return "z2"


def _parse_cycles(text: str) -> List[List[int]]:
    text = text.strip()
    if text in ("", "()", "e", "id"):
        return []
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError(f"bad cycle notation: {text!r}")
    cycles = []
    for chunk in text[1:-1].split(")("):
        pts = [int(p) for p in chunk.replace(",", " ").split()]
        if len(pts) < 2 or len(set(pts)) != len(pts) or min(pts) < 1:
            raise ValueError(f"bad cycle: ({chunk})")
        cycles.append(pts)
    return cycles


MAX_DEGREE = 256  # points a permutation element can hold, one byte each
_PAD = bytes(range(MAX_DEGREE))  # the identity translate table


def _check_point_count(n: int) -> None:
    if n > MAX_DEGREE:
        raise ValueError(f"permutation quotients act on at most {MAX_DEGREE} "
                         f"points, not {n}")


def permutation_from_cycles(text: str, degree: Optional[int] = None) -> Tuple[int, ...]:
    """One-line cycle notation, 1-based points, e.g. '(1 2)(3 4)'."""
    cycles = _parse_cycles(text)
    n = max((max(c) for c in cycles), default=1)
    if degree is not None:
        if degree < n:
            raise ValueError("degree smaller than largest moved point")
        n = degree
    _check_point_count(n)
    perm = list(range(n))
    for cyc in cycles:
        for i, p in enumerate(cyc):
            q = cyc[(i + 1) % len(cyc)]
            perm[p - 1] = q - 1
    return tuple(perm)


def cycles_string(perm: Sequence[int]) -> str:
    seen = [False] * len(perm)
    out = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        p = perm[start]
        while p != start:
            cyc.append(p)
            seen[p] = True
            p = perm[p]
        out.append("(" + " ".join(str(i + 1) for i in cyc) + ")")
    return "".join(out) or "()"


class PermutationQuotient(QuotientGroup):
    """F2 -> a finite permutation group on {1..n}, n <= 256 (0-based
    internally).  Elements are bytes: x[i] is the image of point i."""

    def __init__(self, image_a: Sequence[int], image_b: Sequence[int]):
        n = max(len(image_a), len(image_b))
        _check_point_count(n)
        image_a = tuple(image_a) + tuple(range(len(image_a), n))
        image_b = tuple(image_b) + tuple(range(len(image_b), n))
        for p in (image_a, image_b):
            if sorted(p) != list(range(n)):
                raise ValueError(f"not a permutation of 0..{n-1}: {p}")
        self.degree = n
        a, b = bytes(image_a), bytes(image_b)
        self.letter_images = {
            LETTER_A: a, LETTER_AI: self.invert(a),
            LETTER_B: b, LETTER_BI: self.invert(b),
        }

    def identity(self):
        return _PAD[:self.degree]

    def multiply(self, x, y):
        # act with x first, then y: point i goes to y[x[i]]
        return x.translate(y + _PAD[len(y):])

    def invert(self, x):
        out = bytearray(len(x))
        for i, j in enumerate(x):
            out[j] = i
        return bytes(out)

    def letter_step(self):
        # the images padded to translate tables once, not at every product
        tables = {c: g + _PAD[self.degree:]
                  for c, g in self.letter_images.items()}
        return lambda x, c: x.translate(tables[c])

    def spec_string(self) -> str:
        a = cycles_string(self.letter_images[LETTER_A])
        b = cycles_string(self.letter_images[LETTER_B])
        return f"perm:a={a};b={b}"


def parse_quotient_spec(spec: str) -> QuotientGroup:
    """'z2' or 'perm:a=(1 2);b=(2 3)'."""
    if spec == "z2":
        return FreeAbelianQuotient()
    if spec.startswith("perm:"):
        pairs = [kv.split("=", 1) for kv in spec[5:].split(";")]
        if (any(len(kv) != 2 for kv in pairs)
                or {kv[0] for kv in pairs} != {"a", "b"}):
            raise ValueError(f"bad quotient spec {spec!r}: a permutation "
                             f"spec needs a=<cycles>;b=<cycles>")
        parts = dict(pairs)
        try:
            # the constructor pads the smaller image with fixed points
            return PermutationQuotient(permutation_from_cycles(parts["a"]),
                                       permutation_from_cycles(parts["b"]))
        except ValueError as err:
            raise ValueError(f"bad quotient spec {spec!r}: {err}") from None
    raise ValueError(f"unknown quotient spec: {spec!r}")


# ----------------------------------------------------------------------
# membership

def in_lambda(w: Word, q: QuotientGroup) -> bool:
    """Membership in the kernel of F2 -> q."""
    return q.image(w) == q.identity()


def project_fox(w: Word, q: QuotientGroup, gen: str) -> Dict[Hashable, int]:
    """Fox derivative of w pushed into the group ring of the quotient, as
    {g: coeff} with no zero stored.

    One left-to-right walk: a positive occurrence of the generator
    contributes +(image of the prefix before it), a negative one
    contributes -(image of the prefix including it).
    """
    if gen not in ("a", "b"):
        raise ValueError("gen must be 'a' or 'b'")
    pos = LETTER_A if gen == "a" else LETTER_B
    neg = LETTER_AI if gen == "a" else LETTER_BI
    out: Dict[Hashable, int] = {}
    p = q.identity()
    for c in w.data:
        if c == pos:
            out[p] = out.get(p, 0) + 1
        p = q.multiply(p, q.letter_images[c])
        if c == neg:
            out[p] = out.get(p, 0) - 1
    return {g: n for g, n in out.items() if n}


def in_derived_lambda(w: Word, q: QuotientGroup) -> bool:
    """Membership in [kernel, kernel]: the word must die in the quotient and
    both projected Fox derivatives must vanish."""
    if not in_lambda(w, q):
        return False
    return not project_fox(w, q, "a") and not project_fox(w, q, "b")
