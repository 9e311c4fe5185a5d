"""Quotients of the rank-2 free group.

A normal subgroup is presented as the kernel of a homomorphism onto a
concrete group: either a finite permutation group or Z^2 (exponent sums,
whose kernel is the commutator subgroup).  Each quotient has one product,
letter_step: (x, letter) -> x times the letter's image, with the letters'
tables made once.  It serves the search oracles (search.KernelOracle,
search.DerivedKernelOracle, search.ZeroSumKernelOracle), which carry the
image, and for [kernel, kernel] both Fox derivatives projected into the
integer group ring of the quotient, letter by letter.  The from-scratch
routes the tests check them against, which evaluate one word at a time on
the same letter_step, live in tests/reference.py.

A permutation on n <= 256 points is stored as n bytes, the image of
point i at index i, so a product is one bytes.translate call and elements
hash and compare as bytes.  permutation_from_cycles and cycles_string
speak tuples and cycle notation; PermutationQuotient converts.  Exponent
sums stay tuples.
"""

from __future__ import annotations

from typing import (Callable, Dict, Hashable, List, Optional, Sequence,
                    Tuple)

from .words import EXPONENT_DELTA, LETTER_A, LETTER_AI, LETTER_B, LETTER_BI


class QuotientGroup:
    """Target of a homomorphism out of the free group on a, b.

    Elements are hashable canonical values; subclasses provide the
    arithmetic.  The kernel is automatically normal, so these quotients
    are exactly the normal subgroups this package ever needs.
    """

    def identity(self) -> Hashable:
        raise NotImplementedError

    # letter -> image, including inverse letters; filled by subclasses
    letter_images: Dict[int, Hashable]

    def letter_step(self) -> Callable[[Hashable, int], Hashable]:
        """(x, letter) -> x times the letter's image."""
        raise NotImplementedError

    def spec_string(self) -> str:
        raise NotImplementedError


class FreeAbelianQuotient(QuotientGroup):
    """F2 -> Z^2 by exponent sums; the kernel is the commutator subgroup."""

    letter_images = EXPONENT_DELTA

    def identity(self):
        return (0, 0)

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

    def invert(self, x):
        out = bytearray(len(x))
        for i, j in enumerate(x):
            out[j] = i
        return bytes(out)

    def letter_step(self):
        # act with x first, then the letter: point i goes to image[x[i]];
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

