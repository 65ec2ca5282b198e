"""Exhaustive enumeration of filling permutations for small crossing counts.

The crossing equation, read as a functional constraint, makes each free choice
sigma(e) = f force the partner assignments sigma(opposite(f)) = tau(e) and
sigma(tau^{-1}(f)) = opposite(e); the search propagates these to a fixpoint
after every decision.  Single-cycle mode additionally tracks the open paths of
the partial permutation and rejects any cycle that closes early.

The census enumerates only the slice S = {sigma : sigma(1) in {2, 2n+2}}.
Conjugating by delta fixes label 1 and cycles the even labels in two n-cycles,
so it moves sigma(1) around its cycle; delta acts freely, S holds exactly one
sigma per delta-orbit, and the full solution set has n * |S| members.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .filling import tau, validate
from .perm import Permutation
from .surgery import find_decompositions
from .twist import _conjugate_oneline, _group

SINGLE_CYCLE_MAX_N = 7
GENERAL_MAX_N = 5


class BoundExceeded(ValueError):
    pass


def upper_bound(g: int) -> int:
    """Orbit-count ceiling 2^(2g-2) * (4g-5) * (2g-3)! for genus g > 2."""
    if g <= 2:
        raise ValueError(f"bound defined for genus > 2, got {g}")
    return 2 ** (2 * g - 2) * (4 * g - 5) * math.factorial(2 * g - 3)


def enumerate_filling(
    n: int,
    single_cycle: bool = True,
    max_n: int | None = None,
    symmetry_reduced: bool = False,
) -> list[tuple[int, ...]]:
    """All alternating solutions of the crossing equation on 4n symbols,
    as one-line tuples (sigma(1), ..., sigma(4n)).

    With `single_cycle` only one-region (minimal) solutions are produced.
    `symmetry_reduced` restricts the first image of 1 to {2, 2n+2}: one
    sigma per delta-orbit, and the full set has n times as many members.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if max_n is None:
        max_n = SINGLE_CYCLE_MAX_N if single_cycle else GENERAL_MAX_N
    if n > max_n:
        raise BoundExceeded(f"n={n} exceeds the configured bound {max_n}")

    m = 4 * n
    two_n = 2 * n
    # 1-based arrays; index 0 unused
    tau_arr = [0, *tau(n).one_line()]
    tau_inv = [0] * (m + 1)
    for e in range(1, m + 1):
        tau_inv[tau_arr[e]] = e
    opp = [0] + [(e + two_n - 1) % m + 1 for e in range(1, m + 1)]

    sigma = [0] * (m + 1)
    preimage = [0] * (m + 1)
    start_of = list(range(m + 1))  # start of the open path ending at index
    end_of = list(range(m + 1))  # end of the open path starting at index
    assigned = 0
    solutions: list[tuple[int, ...]] = []

    def propagate(e0: int, f0: int, trail: list) -> bool:
        nonlocal assigned
        queue = [(e0, f0)]
        while queue:
            e, f = queue.pop()
            if sigma[e]:
                if sigma[e] != f:
                    return False
                continue
            if preimage[f]:
                return False
            if single_cycle:
                s = start_of[e]
                t = end_of[f]
                if s == f:
                    if assigned + 1 != m:
                        return False
                    trail.append((e, f, None))
                else:
                    trail.append((e, f, (s, t)))
                    end_of[s] = t
                    start_of[t] = s
            else:
                trail.append((e, f, None))
            sigma[e] = f
            preimage[f] = e
            assigned += 1
            queue.append((opp[f], tau_arr[e]))
            queue.append((tau_inv[f], opp[e]))
        return True

    def undo(trail: list) -> None:
        nonlocal assigned
        for e, f, merge in reversed(trail):
            sigma[e] = 0
            preimage[f] = 0
            assigned -= 1
            if merge is not None:
                s, t = merge
                end_of[s] = e
                start_of[t] = f

    def next_unassigned() -> int:
        for e in range(1, m + 1):
            if not sigma[e]:
                return e
        return 0

    def search() -> None:
        nonlocal assigned
        if assigned == m:
            solutions.append(tuple(sigma[1:]))
            return
        e = next_unassigned()
        if symmetry_reduced and assigned == 0 and e == 1:
            candidates = [2, two_n + 2]
        else:
            first = 2 if e % 2 == 1 else 1
            candidates = [f for f in range(first, m + 1, 2) if not preimage[f]]
        for f in candidates:
            trail: list = []
            if propagate(e, f, trail):
                search()
            undo(trail)

    search()
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
        return {
            "n": self.n,
            "c": self.c,
            "genus": self.genus,
            "canonical_form": list(self.canonical_form),
            "orbit_size_raw": self.orbit_size_raw,
            "decomposable": self.decomposable,
        }

    @classmethod
    def from_record(cls, rec: dict) -> "CensusRecord":
        return cls(
            n=rec["n"],
            c=rec["c"],
            genus=rec["genus"],
            canonical_form=tuple(rec["canonical_form"]),
            orbit_size_raw=rec["orbit_size_raw"],
            decomposable=rec["decomposable"],
        )


def census_records(
    n: int, single_cycle: bool = True, max_n: int | None = None
) -> tuple[int, list[CensusRecord]]:
    """Enumerate, group into relabeling orbits, and describe each orbit.

    Returns (number of raw solutions, per-orbit records sorted by canonical
    form).  Only the slice S (one sigma per delta-orbit) is enumerated, so
    the raw count is n * |S|.  Each orbit is swept once, from any of its
    unclassified members, by the relabelings t that carry it into S: the
    head of t sigma t^-1 is t(sigma(t^-1(1))), so t is kept when
    sigma(t^-1(1)) is t^-1(2) or t^-1(2n+2).  Every such conjugate must
    itself be an enumerated solution: a solution set not closed under
    relabeling raises RuntimeError.  An orbit's heads are closed under
    delta, so its least member lies in S, and it has n times as many members
    as it has in S.  The decomposable flag is computed on each orbit
    representative (only minimal representatives can decompose).
    """
    unseen = set(
        enumerate_filling(n, single_cycle=single_cycle, max_n=max_n, symmetry_reduced=True)
    )
    total = n * len(unseen)
    # (t, index of t^-1(1) in a one-line tuple, t^-1(2), t^-1(2n+2))
    sweep = [(t, t.index(1), t.index(2) + 1, t.index(2 * n + 2) + 1) for t in _group(n)]
    orbits: list[tuple[tuple[int, ...], int]] = []  # (least conjugate, orbit size)
    while unseen:
        one = next(iter(unseen))
        in_slice = {
            _conjugate_oneline(one, t) for t, i, a, b in sweep if one[i] == a or one[i] == b
        }
        if not in_slice <= unseen:
            missing = min(in_slice - unseen)
            raise RuntimeError(
                f"solution set for n={n} is not closed under relabeling: "
                f"{missing} is a conjugate of the solution {one} but was not enumerated"
            )
        unseen -= in_slice
        orbits.append((min(in_slice), n * len(in_slice)))
    records = []
    for canon, size in sorted(orbits):
        rep = validate(Permutation(canon), n)
        records.append(
            CensusRecord(
                n=n,
                c=rep.region_count,
                genus=rep.genus(),
                canonical_form=canon,
                orbit_size_raw=size,
                decomposable=rep.is_minimal() and bool(find_decompositions(rep)),
            )
        )
    return total, records


def count_orbits(n: int, max_n: int | None = None) -> tuple[int, list[CensusRecord]]:
    """Number of relabeling classes among minimal (single-region) solutions."""
    if n % 2 == 0:
        raise ValueError("minimal pairs have odd crossing count (n = 2g-1)")
    _, records = census_records(n, single_cycle=True, max_n=max_n)
    return len(records), records


def write_census(records: list[CensusRecord], path: str | Path) -> None:
    """One JSON record per line, sorted by canonical form for stable diffs."""
    lines = [json.dumps(r.to_record(), separators=(",", ":")) for r in records]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def read_census(path: str | Path) -> list[CensusRecord]:
    out = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            out.append(CensusRecord.from_record(json.loads(line)))
    return out
