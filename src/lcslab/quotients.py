"""Quotients of the rank-2 free group.

A normal subgroup is presented as the kernel of a homomorphism onto a
concrete group: either a finite permutation group or Z^2 (exponent sums,
whose kernel is the commutator subgroup).  A quotient is the pair
(identity, step): the image of the empty word, and the one product
step(x, letter) -> x times the letter's image, with the letters' tables
made once.  It serves the search oracles (search.KernelOracle,
search.DerivedKernelOracle, search.ZeroSumKernelOracle), which carry the
image, and for [kernel, kernel] both Fox derivatives projected into the
integer group ring of the quotient, letter by letter.  The from-scratch
routes the tests check them against, which evaluate one word at a time on
the same pair, live in tests/reference.py.

A permutation on n <= 256 points is stored as n bytes, the image of
point i at index i, so a product is one bytes.translate call and elements
hash and compare as bytes.  permutation_from_cycles and cycles_string
speak tuples and cycle notation, whose cycles must be disjoint;
permutation_quotient converts.  Exponent sums stay tuples.
"""

from __future__ import annotations

from typing import Callable, Hashable, List, Optional, Sequence, Tuple

from .words import EXPONENT_DELTA, LETTER_A, LETTER_AI, LETTER_B, LETTER_BI

# (identity, step): step(x, letter) -> x times the letter's image
Quotient = Tuple[Hashable, Callable[[Hashable, int], Hashable]]


def _exponent_step(x, c):  # one call per letter: add its exponent sums
    da, db = EXPONENT_DELTA[c]
    return x[0] + da, x[1] + db


def _parse_cycles(text: str) -> List[List[int]]:
    text = text.strip()
    if text in ("", "()", "e", "id"):
        return []
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError(f"bad cycle notation: {text!r}")
    cycles = []
    seen = set()
    for k, chunk in enumerate(text[1:-1].split(")("), 1):
        tokens = chunk.replace(",", " ").split()
        for p in tokens:
            if not (p.isascii() and p.isdigit()):
                raise ValueError(f"bad point {p!r} in cycle {k} ({chunk}): "
                                 f"points are ASCII decimal integers")
        pts = [int(p) for p in tokens]
        if len(pts) < 2 or len(set(pts)) != len(pts) or min(pts) < 1:
            raise ValueError(f"bad cycle: ({chunk})")
        shared = seen.intersection(pts)
        if shared:
            raise ValueError(f"point {min(shared)} is in two cycles; cycles "
                             f"must be disjoint")
        seen.update(pts)
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


def permutation_quotient(image_a: Sequence[int],
                         image_b: Sequence[int]) -> Quotient:
    """F2 -> a finite permutation group on {1..n}, n <= 256 (0-based
    internally), the smaller image padded with fixed points.  Elements are
    bytes: x[i] is the image of point i."""
    n = max(len(image_a), len(image_b))
    _check_point_count(n)
    # act with x first, then the letter: point i goes to image[x[i]]; each
    # letter's image padded to a translate table once, not at every product.
    # The points sorted by their images are the inverse image.
    tables = {}
    for letter, inverse, image in ((LETTER_A, LETTER_AI, image_a),
                                   (LETTER_B, LETTER_BI, image_b)):
        p = tuple(image) + tuple(range(len(image), n))
        if sorted(p) != list(range(n)):
            raise ValueError(f"not a permutation of 0..{n-1}: {p}")
        tables[letter] = bytes(p) + _PAD[n:]
        tables[inverse] = bytes(sorted(range(n), key=p.__getitem__)) + _PAD[n:]
    return _PAD[:n], lambda x, c: x.translate(tables[c])


def parse_quotient_spec(spec: str) -> Quotient:
    """'z2' or 'perm:a=(1 2);b=(2 3)', each generator given once, as its
    (identity, step)."""
    if spec == "z2":
        return (0, 0), _exponent_step
    if spec.startswith("perm:"):
        pairs = [kv.split("=", 1) for kv in spec[5:].split(";")]
        names = [kv[0] for kv in pairs]
        for name in ("a", "b"):
            if names.count(name) > 1:
                raise ValueError(f"bad quotient spec {spec!r}: generator "
                                 f"{name} is given more than once")
        if any(len(kv) != 2 for kv in pairs) or set(names) != {"a", "b"}:
            raise ValueError(f"bad quotient spec {spec!r}: a permutation "
                             f"spec needs a=<cycles>;b=<cycles>")
        parts = dict(pairs)
        try:
            return permutation_quotient(permutation_from_cycles(parts["a"]),
                                        permutation_from_cycles(parts["b"]))
        except ValueError as err:
            raise ValueError(f"bad quotient spec {spec!r}: {err}") from None
    raise ValueError(f"unknown quotient spec: {spec!r}")
