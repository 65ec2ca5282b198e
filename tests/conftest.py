"""Shared fixtures: the worked filling permutations used across the suite,
small permutation and filling oracles, and the geometric separation check
that the witness rule is tested against."""

from __future__ import annotations

import math
from bisect import bisect_right

import pytest

from fillperm import FillingError, Permutation, validate

# genus-2 piece with 6 crossings (two octagons, two rectangles)
ZETA = "(1,10,15,20,17,22,3,12)(24,5,18,11)(23,16,9,6,7,4,21,14)(2,19,8,13)"
# genus-3 piece with 8 crossings (two rectangles, two 12-gons)
SIGMA_Z = "(1,6,25,18)(2,23,28,5,14,27,22,3,12,21,26,15)(31,24,11,16)(32,13,10,19,20,9,8,29,30,7,4,17)"
# minimal genus-3 pair
SIGMA_F = "(1,2,13,20,7,6,19,14,5,10,11,16,9,8,15,12,3,4,17,18)"
# minimal genus-6 pair assembled as SIGMA_F # SIGMA_Z at site (3, 2)
SIGMA_F6 = (
    "(1,2,11,28,25,44,19,18,43,38,35,8,17,22,23,40,21,20,39,10,7,"
    "34,27,6,13,36,29,12,9,24,3,26,31,14,15,30,33,4,5,32,37,16,41,42)"
)
# minimal genus-4 pair
F4 = "(1,16,27,10,7,18,15,2,3,20,21,12,11,22,17,4,9,26,19,8,13,28,23,6,5,24,25,14)"
# the genus-2 piece split off SIGMA_F; not homeomorphic to ZETA
ZETA_PRIME = "(1,20,17,12)(24,15,10,5,18,21,4,11)(23,6,7,14)(2,9,16,19,8,3,22,13)"
# the genus-5 piece split off SIGMA_F6
Z5 = (
    "(1,32,41,40,13,24)(48,15,18,29,36,11,16,39,46,9,12,27,10,33,44,7,22,37,"
    "38,5,20,31,42,17,30,45,4,23)(47,6,19,26)(2,21,28,43,8,3,14,35,34,25)"
)
# SIGMA_F6 disassembled along the k=5 witness and reassembled on a torus host
SIGMA_PRIME = (
    "(1,10,11,36,25,30,19,4,43,24,35,16,17,8,23,26,21,6,39,18,7,42,27,14,"
    "13,44,29,20,9,32,3,34,31,22,15,38,33,12,5,40,37,2,41,28)"
)

FIXTURE_TEXTS = {
    "zeta": (ZETA, 6),
    "sigma_z": (SIGMA_Z, 8),
    "sigma_f": (SIGMA_F, 5),
    "sigma_f6": (SIGMA_F6, 11),
    "f4": (F4, 7),
    "zeta_prime": (ZETA_PRIME, 6),
    "z5": (Z5, 12),
}


def perm(text: str, size: int) -> Permutation:
    return Permutation.from_cycle_string(text, size)


def identity(m: int) -> Permutation:
    return Permutation(range(1, m + 1))


def opp_shift(n: int) -> Permutation:
    """Oracle: Q^N, N = 2n, where Q is the 4n-cycle shifting every label
    forward by one; Q^N sends each label to the reversed copy of its arc."""
    m = 4 * n
    return Permutation([e % m + 1 for e in range(1, m + 1)]) ** (2 * n)


def opposite(e: int, n: int) -> int:
    """Oracle: the reversed copy of the same arc, one label at a time: a
    shift by 2n mod 4n.  An involution."""
    m = 4 * n
    if not 1 <= e <= m:
        raise ValueError(f"symbol {e} out of range 1..{m}")
    return (e + 2 * n - 1) % m + 1


def is_valid(sigma: Permutation, n: int | None = None) -> bool:
    try:
        validate(sigma, n)
    except FillingError:
        return False
    return True


def order(p: Permutation) -> int:
    return math.lcm(*(len(c) for c in p.cycles()))


def assert_as_if_checked(p: Permutation) -> None:
    """p holds a tuple of ints, and the checked constructor, given its
    images, builds a permutation equal to it with the same hash; a list or
    `bytes` held by a builder that skips the check fails here."""
    imgs = p.one_line()
    assert type(imgs) is tuple
    assert all(type(v) is int for v in imgs)
    checked = Permutation(imgs)
    assert checked == p and hash(checked) == hash(p)


def conjugate_oneline(sigma: tuple[int, ...], t: tuple[int, ...]) -> tuple[int, ...]:
    """Oracle: the one-line images of t sigma t^-1, one label at a time."""
    out = [0] * len(sigma)
    for e0, v in enumerate(sigma):
        out[t[e0] - 1] = t[v - 1]
    return tuple(out)


@pytest.fixture(scope="session")
def zeta():
    return validate(perm(ZETA, 24))


@pytest.fixture(scope="session")
def sigma_z():
    return validate(perm(SIGMA_Z, 32))


@pytest.fixture(scope="session")
def sigma_f():
    return validate(perm(SIGMA_F, 20))


@pytest.fixture(scope="session")
def sigma_f6():
    return validate(perm(SIGMA_F6, 44))


@pytest.fixture(scope="session")
def f4():
    return validate(perm(F4, 28))


@pytest.fixture(scope="session")
def zeta_prime():
    return validate(perm(ZETA_PRIME, 24))


@pytest.fixture(scope="session")
def z5():
    return validate(perm(Z5, 48))


@pytest.fixture(scope="session")
def f1():
    return validate(perm("(1,2,3,4)", 4))


class ChordsCross(Exception):
    """Two anchor chords collide or cross inside the region polygon."""


def reference_separating(fp, dec):
    # the geometric oracle for the witness rule: cut the region polygon of a
    # minimal pair along the four anchor chords, reglue opposite edges and
    # ask whether the four faces past the chords' initial points make a
    # component of their own; a bisect per edge piece, opposite() per label
    n = fp.n
    g = fp.genus()
    pos = {sym: idx for idx, sym in enumerate(fp.regions[0])}
    anchors = dec.anchors
    shared = dec.k == g - 1  # each anchor edge carries two chord attachments

    # chord c: from anchors[c] to opposite(anchors[c+1]); coordinates scale
    # each edge to width 6 so attachment points land on integers.
    points: list[tuple[int, int]] = []  # (coord, chord)
    chord_init_coord: list[int] = []
    for c in range(4):
        init_edge = anchors[c]
        term_edge = opposite(anchors[(c + 1) % 4], n)
        init_coord = 6 * pos[init_edge] + (4 if shared else 3)
        term_coord = 6 * pos[term_edge] + (2 if shared else 3)
        if any(coord in (init_coord, term_coord) for coord, _ in points):
            raise ChordsCross("chord attachment points collide")
        points.append((init_coord, c))
        points.append((term_coord, c))
        chord_init_coord.append(init_coord)
    points.sort()

    # walk the circle once; non-crossing chords nest like parentheses
    face_of_arc: list[int] = []  # arc idx -> face; arc idx starts at points[idx]
    opened_at: dict[int, int] = {}  # chord -> face it opened
    parent_of: dict[int, int] = {}
    current = 0
    next_face = 1
    stack: list[int] = []
    for coord, chord in points:
        if chord not in opened_at:
            stack.append(current)
            opened_at[chord] = next_face
            parent_of[next_face] = current
            current = next_face
            next_face += 1
        else:
            if opened_at[chord] != current:
                raise ChordsCross("anchor chords cross inside the polygon")
            current = stack.pop()
        face_of_arc.append(current)
    if stack or current != 0:
        raise ChordsCross("unbalanced chord endpoints")
    num_faces = next_face  # root face 0 plus one per chord

    coords = [coord for coord, _ in points]

    def face_at(coord2x: int) -> int:
        # locate by doubled coordinate to keep interval midpoints integral
        idx = bisect_right(coords, coord2x / 2) - 1
        return face_of_arc[idx if idx >= 0 else len(coords) - 1]

    cordon_faces = [face_at(2 * c + 1) for c in chord_init_coord]

    # glue: edge pieces (split at attachment coords) pair reversed with the
    # opposite edge's pieces
    parent = list(range(num_faces))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj

    cuts_of_edge: dict[int, list[int]] = {}
    for coord, _ in points:
        cuts_of_edge.setdefault(coord // 6, []).append(coord)
    for sym in range(1, 4 * n + 1):
        opp = opposite(sym, n)
        if sym > opp:
            continue
        p1, p2 = pos[sym], pos[opp]
        cuts1 = sorted(cuts_of_edge.get(p1, []))
        cuts2 = sorted(cuts_of_edge.get(p2, []))
        if len(cuts1) != len(cuts2):
            raise ChordsCross("attachment points are not mirrored on opposite edges")
        bounds1 = [6 * p1] + cuts1 + [6 * p1 + 6]
        bounds2 = [6 * p2] + cuts2 + [6 * p2 + 6]
        m = len(bounds1) - 1
        for piece_idx in range(m):
            f1 = face_at(bounds1[piece_idx] + bounds1[piece_idx + 1])
            f2 = face_at(bounds2[m - 1 - piece_idx] + bounds2[m - piece_idx])
            union(f1, f2)

    components = {find(f) for f in range(num_faces)}
    if len(components) != 2:
        return False
    cordon_roots = {find(f) for f in cordon_faces}
    if len(set(cordon_faces)) != 4 or len(cordon_roots) != 1:
        return False
    other = [f for f in range(num_faces) if f not in set(cordon_faces)]
    return all(find(f) not in cordon_roots for f in other)
