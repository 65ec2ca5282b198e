"""Exhaustive enumeration of filling permutations for small crossing counts.

The crossing equation, read as a functional constraint, makes each free choice
sigma(e) = f force sigma(opposite(f)) = tau(e), and so on around the crossing:
the map (e, f) -> (opposite(f), tau(e)) has order 4, so one choice forces
exactly the four left edges of one crossing, a block that never conflicts with
itself.  The one search, `_search`, is an exact cover of the 4n labels by
blocks (Knuth, "Dancing Links", 2000) that always extends at the lowest free
label, so every label below it is covered and a block holding one could never
be kept: the blocks are tabulated once per n, each once, under its least
label.  One region needs odd n = 2g - 1, so single-cycle mode returns at once
for even n; otherwise it tracks the open paths of the partial permutation and
rejects any cycle that closes early, joining a block's four arrows one at a
time in straight-line code and undoing each join from the two path ends it
saved.

The search walks only the slice S = {sigma : sigma(1) = 2}.  The
relabelings that fix label 1 form the group <delta, R> of order 8n^2 / 4n =
2n, where R = surgery._reverse_second(n) = delta^-1 mu eta mu reverses the
second curve.  Both generators fix every odd label; delta cycles the plain
and the reversed even labels in two n-cycles and R swaps the two halves, so
<delta, R> acts freely and transitively on the 2n even labels.  Conjugating
by its element s sends the head sigma(1) to s(sigma(1)), so each orbit of
<delta, R> on the solutions holds exactly one member of S: an orbit of the
relabeling group has 2n times as many members as it has in S, and the full
solution set has 2n * |S|.  S holds each orbit's least conjugate, since 2 is
the least head a conjugate can have.

The search is orderly (Read, "Every one a winner", 1978; McKay,
"Isomorph-free exhaustive generation", 1998): it keeps a solution only when
it is the least of its 4n slice conjugates t sigma t^-1, t the cell
(x, sigma x) of `twist._slice_table`, and it cuts a branch as soon as a
placed 2-path x -> sigma x -> sigma^2 x shows a conjugate whose second
image t(sigma^2 x) is below sigma(2); each node reads the 2-paths through
its new block's arrows.  No set of solutions is built, and each record
comes from its own sigma: |Stab| is the number of slice conjugates equal
to sigma, and the orbit has 8n^2 / |Stab| members.  `enumerate_filling`
lists every solution as the union of these orbits.
"""

from __future__ import annotations

import gzip
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from .filling import _opp_tau, tau, validate
from .perm import Permutation
# perfbench/tracing.py wraps census.find_decompositions; see tests/test_perfbench_surface.py
from .surgery import _decomposes, find_decompositions  # noqa: F401
from .twist import _check_n, _slice_table


def upper_bound(g: int) -> int:
    """Orbit-count ceiling 2^(2g-2) * (4g-5) * (2g-3)! for genus g > 2."""
    if g <= 2:
        raise ValueError(f"bound defined for genus > 2, got {g}")
    return 2 ** (2 * g - 2) * (4 * g - 5) * math.factorial(2 * g - 3)


@lru_cache(maxsize=None)
def _crossing_blocks(n: int) -> tuple[tuple[tuple[int, tuple], ...], ...]:
    """For each label e (row e; row 0 is empty) and each image f of the other
    parity, in increasing order, the crossing block that sigma(e) = f forces,
    kept only when e is its least label: (label bitmask, its four (label,
    image) pairs, (e, f) first).  Label e is bit e - 1 of a mask.

    The forcing map A(e, f) = (opp f, tau e) has order 4, because A^2 sends
    e to opp tau e and (opp tau)^2 = id.  Its four pairs have distinct
    labels: each two differ in parity or in the half (plain or reversed)
    they lie in, since tau keeps both and opp keeps parity but swaps halves.
    The block's images are tau of its labels, so blocks with disjoint labels
    also have disjoint images.

    A block is forced from each of its four labels alike, but the search
    reads row e only when every label below e is covered, so a copy in the
    row of a label other than its least could never be kept: each of the
    2n^2 blocks is filed once, in the row of its least label.
    """
    m = 4 * n
    t = (0, *tau(n).one_line())
    opp = _opp_tau(n, 0)
    rows: list[tuple] = [()]
    for e in range(1, m + 1):
        row = []
        # the block is (e, f), (opp f, tau e), (opp tau e, tau opp f),
        # (opp tau opp f, tau opp tau e); a start stops at its first label below e
        te = t[e]
        e3 = opp[te]
        if e3 > e:
            te3 = t[e3]
            bit = (1 << (e - 1)) | (1 << (e3 - 1))
            for f in range(2 if e % 2 else 1, m + 1, 2):
                e2 = opp[f]
                if e2 < e:
                    continue
                e4 = opp[t[e2]]
                if e4 < e:
                    continue
                row.append((
                    bit | (1 << (e2 - 1)) | (1 << (e4 - 1)),
                    ((e, f), (e2, te), (e3, t[e2]), (e4, te3)),
                ))
        rows.append(tuple(row))
    return tuple(rows)


def enumerate_filling(n: int, single_cycle: bool = True) -> list[bytes]:
    """All alternating solutions of the crossing equation on 4n symbols,
    as the bytes of their one-line images (sigma(1), ..., sigma(4n)), in
    increasing order.

    Every solution is a relabeling t sigma t^-1 of its class's least member,
    so the set is the union of the census's classes: each canonical sigma of
    `_search` is conjugated by the 8n^2 cells (t^-1, t) of
    `twist._slice_table`, as two `translate` gathers, and the conjugates are
    deduplicated.  With `single_cycle` only one-region (minimal) solutions
    are produced; one region means n = 2g - 1, so an even n returns []
    before any crossing block or relabeling table is built.
    The slice S = {sigma : sigma(1) = 2}, one sigma per orbit of <delta, R>
    (the relabelings that fix label 1), is the solutions whose first byte
    is 2; the full set has 2n times as many members.
    Labels must fit a byte: n outside 1..twist.BYTE_MAX_N raises BoundExceeded.
    """
    classes = _search(n, single_cycle)
    if not classes:  # an even single-cycle n stops here, before the table
        return []
    cells = [cell for row in _slice_table(n) for cell in row if cell is not None]
    pad = bytes(255 - 4 * n)
    solutions: set[bytes] = set()
    for one, _ in classes:
        sigma = b"\0" + one + pad  # sigma(e) at index e
        solutions.update(inv.translate(sigma).translate(t) for inv, t in cells)
    return sorted(solutions)


def _search(n: int, single_cycle: bool) -> list[tuple[bytes, int]]:
    """The census search, as the module docstring describes it: (bytes,
    |Stab|) of each solution in the slice S that is the least of its 4n
    slice conjugates, in increasing (depth-first) order.

    It takes the lowest free label e and tries the blocks of row e in
    increasing f, keeping one when none of its labels is assigned yet (its
    images are then free too); the root keeps only the block of
    sigma(1) = 2.  Each node reads the 2-paths through the arrows of its new
    block against sigma(2), which reads 0, and cuts nothing, until it is
    placed.  The root block is the only block above the one that places
    sigma(2), and at n >= 2 none of its images is one of its labels (at
    n = 1 it places sigma(2)), so that node reads every 2-path placed so
    far.  The 2-path x -> sigma x -> sigma^2 x gives the slice conjugate by
    the cell (x, sigma x) the second image t(sigma^2 x): one below sigma(2)
    cuts the branch, and the x of one equal to it is kept in the bitmask
    `ties`.  At a leaf every 2-path has been read, so only the tied x can
    give a conjugate below sigma, and only theirs are built.
    """
    _check_n(n)
    if single_cycle and n % 2 == 0:
        return []
    m = 4 * n
    full = (1 << m) - 1
    blocks = _crossing_blocks(n)
    # label 1 is the lowest label, so only the root reads row 1, whose first
    # block is sigma(1) = 2
    rows = (blocks[0], blocks[1][:1], *blocks[2:])
    cells = (None, *_slice_table(n))  # row x holds the cells (x, y)
    opp = _opp_tau(n, 0)
    opp_tau = _opp_tau(n, 1)  # an involution, so tau^-1 = opp tau opp
    # sigma(e) at index e, so a leaf's conjugates translate through it; each
    # block's entries are cleared as the search backtracks, so sigma(e) = 0
    # means e is free
    sigma = bytearray(256)
    key = memoryview(sigma)[1 : m + 1]  # the one-line images
    # the other end of the open path that starts or ends at a label (a lone
    # label is its own mate); no label is one path's start and another's end
    mate = list(range(m + 1))
    solutions: list[tuple[bytes, int]] = []

    def search(used: int, arrows: tuple, ties: int) -> None:
        bound = sigma[2]  # 0 until sigma(2) is placed
        if bound:
            # the 2-paths through each new arrow e -> f: e -> f -> sigma f,
            # and x -> e -> f, where x = opp sigma tau^-1 e (the block of
            # tau^-1 e holds the arrow x -> e) is placed with tau^-1 e
            for e, f in arrows:
                z = sigma[f]
                if z:
                    v = cells[e][f][1][z]
                    if v <= bound:
                        if v < bound:
                            return
                        ties |= 1 << e
                w = sigma[opp_tau[opp[e]]]
                if w:
                    x = opp[w]
                    v = cells[x][e][1][f]
                    if v <= bound:
                        if v < bound:
                            return
                        ties |= 1 << x
        if used == full:
            one = bytes(key)
            # every 2-path is placed and none is below sigma(2): only the x
            # that tie it can give a smaller conjugate.  x = 1 ties, as its
            # cell is the identity, and gives sigma itself.
            stabilizer = 1
            ties &= ~2
            while ties:
                low = ties & -ties
                ties ^= low
                x = low.bit_length() - 1
                inv, t = cells[x][sigma[x]]
                conjugate = inv.translate(sigma).translate(t)
                if conjugate < one:
                    return
                stabilizer += conjugate == one
            solutions.append((one, stabilizer))
            return
        free = full ^ used
        for labels, arrows in rows[(free & -free).bit_length()]:
            if labels & used:
                continue
            (e1, f1), (e2, f2), (e3, f3), (e4, f4) = arrows
            if not single_cycle:
                sigma[e1] = f1
                sigma[e2] = f2
                sigma[e3] = f3
                sigma[e4] = f4
                search(used | labels, arrows, ties)
                sigma[e1] = sigma[e2] = sigma[e3] = sigma[e4] = 0
                continue
            # join arrows 1 to 4 to the open paths in order; one that closes a
            # cycle prunes the branch unless it is the last arrow of all, whose
            # join then rewrites nothing (s4 = f4 gives t4 = e4).  Each join is
            # undone from its saved ends s_i, t_i, in reverse order.
            s1 = mate[e1]
            if s1 == f1:
                continue
            t1 = mate[f1]
            mate[s1] = t1
            mate[t1] = s1
            s2 = mate[e2]
            if s2 != f2:
                t2 = mate[f2]
                mate[s2] = t2
                mate[t2] = s2
                s3 = mate[e3]
                if s3 != f3:
                    t3 = mate[f3]
                    mate[s3] = t3
                    mate[t3] = s3
                    s4 = mate[e4]
                    if s4 != f4 or labels | used == full:
                        t4 = mate[f4]
                        mate[s4] = t4
                        mate[t4] = s4
                        sigma[e1] = f1
                        sigma[e2] = f2
                        sigma[e3] = f3
                        sigma[e4] = f4
                        search(used | labels, arrows, ties)
                        sigma[e1] = sigma[e2] = sigma[e3] = sigma[e4] = 0
                        mate[s4] = e4
                        mate[t4] = f4
                    mate[s3] = e3
                    mate[t3] = f3
                mate[s2] = e2
                mate[t2] = f2
            mate[s1] = e1
            mate[t1] = f1

    search(0, (), 0)
    # search's closure refers to itself; the cycle would keep `solutions` alive
    del search
    return solutions


@dataclass(frozen=True)
class CensusRecord:
    n: int
    c: int
    genus: int
    canonical_form: tuple[int, ...]  # one-line images of the orbit's least conjugate
    orbit_size_raw: int
    decomposable: bool

    def to_record(self) -> dict:
        return {**vars(self), "canonical_form": list(self.canonical_form)}

    def to_line(self) -> str:
        """One compact JSON line, as `write_census` writes the record and
        `fillperm census` prints it."""
        return json.dumps(self.to_record(), separators=(",", ":"))

    @classmethod
    def from_record(cls, rec: dict) -> "CensusRecord":
        return cls(**{**rec, "canonical_form": tuple(rec["canonical_form"])})


def census_records(n: int, single_cycle: bool = True) -> tuple[int, list[CensusRecord]]:
    """The canonical solution of each relabeling orbit, and its record.

    Returns (number of raw solutions, per-orbit records sorted by canonical
    form, the search's depth-first order).  One orderly search (`_search`)
    walks the slice S = {sigma : sigma(1) = 2}, which holds each orbit's
    least conjugate, and decides each solution from its own sigma: it is
    kept when none of its 4n slice conjugates is smaller, and |Stab| counts
    those equal to it.  A branch is cut as soon as a placed 2-path shows a
    smaller conjugate.
    An orbit has 8n^2 / |Stab| members, and the raw count is their sum.
    n outside 1..twist.BYTE_MAX_N, the only bound on n, raises
    BoundExceeded before the search; `fillperm census` also bounds the run
    length.
    Each representative is validated.  The decomposable flag is computed on
    it (only minimal representatives can decompose) as a first hit: the
    decomposition search stops at its first witness, trying a torus
    remainder first, instead of listing them all.
    """
    order = 8 * n * n
    records = []
    for key, stabilizer in _search(n, single_cycle):
        canon = tuple(key)
        rep = validate(Permutation(canon), n)
        records.append(
            CensusRecord(
                n=n,
                c=rep.region_count,
                genus=rep.genus(),
                canonical_form=canon,
                orbit_size_raw=order // stabilizer,
                decomposable=rep.is_minimal() and _decomposes(rep),
            )
        )
    return sum(r.orbit_size_raw for r in records), records


def write_census(records: list[CensusRecord], path: str | Path) -> None:
    """One JSON record per line, in the order given (`census_records`'
    order, increasing canonical form, keeps diffs stable); a path ending in
    `.gz` is gzipped, with mtime 0 so the bytes are stable."""
    data = "".join(r.to_line() + "\n" for r in records).encode("utf-8")
    path = Path(path)
    path.write_bytes(gzip.compress(data, mtime=0) if path.suffix == ".gz" else data)


def read_census(path: str | Path) -> list[CensusRecord]:
    """The records of a census file as `write_census` writes it; a path
    ending in `.gz` is read through gzip."""
    path = Path(path)
    if path.suffix == ".gz":
        text = gzip.decompress(path.read_bytes()).decode("utf-8")
    else:
        text = path.read_text(encoding="utf-8")
    out = []
    for line in text.splitlines():
        if line.strip():
            out.append(CensusRecord.from_record(json.loads(line)))
    return out
