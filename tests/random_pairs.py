"""Seeded random minimal pairs, a test source beyond the census sizes.

`random_minimal_pair(n, rng)` runs the census's exact-cover search at one odd
n, with each row of crossing blocks tried in an order `rng` shuffles, and
returns its first one-region solution.  The draw is not uniform over minimal
pairs (the search favours the blocks that extend early), so the pairs serve
properties only, never counts.  `random_pair(n, rng)` draws the same way
with no cycle tracking, so it returns a pair of any region count at any n.
"""

from __future__ import annotations

import random

from fillperm import FillingPermutation, Permutation, validate
from fillperm.census import _crossing_blocks


def random_minimal_pair(n: int, rng: random.Random) -> FillingPermutation:
    """A minimal filling pair with n crossings, n odd, drawn by `rng`.

    As in `enumerate_filling`, each block's four arrows are joined to the
    open paths of the partial permutation, and an arrow that closes a cycle
    before the last label is covered prunes the branch.
    """
    m = 4 * n
    full = (1 << m) - 1
    rows = _crossing_blocks(n)
    sigma = [0] * (m + 1)
    start_of = list(range(m + 1))  # start of the open path ending at label
    end_of = list(range(m + 1))  # end of the open path starting at label

    def search(used: int) -> bool:
        if used == full:
            return True
        free = full ^ used
        row = list(rows[(free & -free).bit_length()])
        rng.shuffle(row)
        for labels, arrows in row:
            if labels & used:
                continue
            last, closed, saved = labels | used == full, False, []
            for c, (e, f) in enumerate(arrows):
                s = start_of[e]
                if s == f:
                    closed = not (last and c == 3)
                    break
                t = end_of[f]
                end_of[s], start_of[t] = t, s
                saved.append((s, t, e, f))
            if not closed:
                for e, f in arrows:
                    sigma[e] = f
                if search(used | labels):
                    return True
            for s, t, e, f in reversed(saved):
                end_of[s], start_of[t] = e, f
        return False

    if not search(0):
        raise ValueError(f"no minimal pair with {n} crossings")
    return validate(Permutation(sigma[1:]), n)


def random_pair(n: int, rng: random.Random) -> FillingPermutation:
    """A filling pair with n crossings, any region count, drawn by `rng`."""
    full = (1 << 4 * n) - 1
    rows = _crossing_blocks(n)
    chosen: list[tuple] = []

    def search(used: int) -> bool:
        if used == full:
            return True
        free = full ^ used
        row = list(rows[(free & -free).bit_length()])
        rng.shuffle(row)
        for labels, arrows in row:
            if not labels & used:
                chosen.append(arrows)
                if search(used | labels):
                    return True
                chosen.pop()
        return False

    if not search(0):
        raise ValueError(f"no filling pair with {n} crossings")
    sigma = dict(arrow for arrows in chosen for arrow in arrows)
    return validate(Permutation([sigma[e] for e in range(1, 4 * n + 1)]), n)
