"""Acceptance suite: one check per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py -v` to see the per-criterion
lines.  Criterion 6 has two tests: `test_criterion_6_round_trips` checks that
the k=5 rebuild of sigma_f6 is the documented permutation and that every
found decomposition of sigma_f6 and sigma_f round-trips by label cycling;
`test_criterion_6_single_delta_step_as_stated` checks that the k=5 rebuild
goes back to sigma_f6 by a single delta power, the one the cut site forces
(delta^4), and by no other relabeling.
"""

from __future__ import annotations

import time

import pytest

from fillperm import (
    Decomposition,
    Permutation,
    are_equivalent,
    assemble,
    AttachmentSite,
    census_records,
    disassemble,
    enumerate_filling,
    find_decompositions,
    generators,
    round_trip_check,
    tau,
    twist_group,
    upper_bound,
    validate,
)

from conftest import (
    FIXTURE_TEXTS,
    SIGMA_PRIME,
    identity,
    is_valid,
    opp_shift,
    perm,
    reference_separating,
)


def report(criterion: str, ok: bool, elapsed: float, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" — {detail}" if detail else ""
    print(f"acceptance criterion {criterion}: {status} ({elapsed:.2f}s){suffix}")


def test_criterion_1_fixture_validation():
    # expected crossing counts are the label counts divided by four; the
    # region and genus values are the documented ones
    expected = {
        "zeta": (6, 4, 2),
        "sigma_z": (8, 4, 3),
        "sigma_f": (5, 1, 3),
        "sigma_f6": (11, 1, 6),
        "f4": (7, 1, 4),
        "zeta_prime": (6, 4, 2),
        "z5": (12, 4, 5),
    }
    t0 = time.perf_counter()
    results = {}
    for name, (text, n) in FIXTURE_TEXTS.items():
        fp = validate(perm(text, 4 * n), n)
        results[name] = (fp.n, fp.region_count, fp.genus())
    elapsed = time.perf_counter() - t0
    ok = results == expected and elapsed < 1.0
    report("1 (fixture validation)", ok, elapsed)
    assert results == expected
    assert elapsed < 1.0


def test_criterion_2_assembly_bit_exact(sigma_f, sigma_z, sigma_f6):
    t0 = time.perf_counter()
    result = assemble(sigma_f, sigma_z, AttachmentSite(3, 2))
    elapsed = time.perf_counter() - t0
    ok = result.sigma == sigma_f6.sigma and elapsed < 1.0
    report("2 (assembly bit-exactness)", ok, elapsed)
    assert result.sigma == sigma_f6.sigma
    assert elapsed < 1.0


def test_criterion_3_decomposition_detection(sigma_f6, sigma_f):
    t0 = time.perf_counter()
    decs_f6 = find_decompositions(sigma_f6)
    decs_f3 = find_decompositions(sigma_f)
    elapsed = time.perf_counter() - t0
    w1 = Decomposition(k=3, l=3, x=3, a=38, y=39, b=2, type=(12, 4, 12, 4))
    w2 = Decomposition(k=5, l=1, x=23, a=38, y=1, b=16, type=(28, 6, 10, 4))
    w3 = Decomposition(k=2, l=1, x=1, a=4, y=11, b=14, type=(8, 4, 8, 4))
    ok = w1 in decs_f6 and w2 in decs_f6 and w3 in decs_f3 and elapsed < 10.0
    report("3 (decomposition detection)", ok, elapsed)
    assert w1 in decs_f6
    assert w2 in decs_f6
    assert w3 in decs_f3
    assert elapsed < 10.0


def test_criterion_4_extraction_bit_exact(sigma_f6, sigma_f, z5, zeta_prime, f1):
    t0 = time.perf_counter()
    piece5, rem5 = disassemble(
        sigma_f6, Decomposition(k=5, l=1, x=23, a=38, y=1, b=16, type=(28, 6, 10, 4))
    )
    piece2, rem2 = disassemble(
        sigma_f, Decomposition(k=2, l=1, x=1, a=4, y=11, b=14, type=(8, 4, 8, 4))
    )
    elapsed = time.perf_counter() - t0
    ok = (
        piece5.sigma == z5.sigma
        and rem5.sigma == f1.sigma
        and piece2.sigma == zeta_prime.sigma
        and rem2.sigma == f1.sigma
        and elapsed < 1.0
    )
    report("4 (extraction bit-exactness)", ok, elapsed)
    assert piece5.sigma == z5.sigma
    assert rem5.sigma == f1.sigma
    assert piece2.sigma == zeta_prime.sigma
    assert rem2.sigma == f1.sigma
    assert elapsed < 1.0


def test_criterion_5_non_homeomorphic_pieces(zeta, zeta_prime):
    t0 = time.perf_counter()
    twist_group(6)  # include the cost of building the group in the budget
    witness = are_equivalent(zeta, zeta_prime)
    elapsed = time.perf_counter() - t0
    ok = witness is None and elapsed < 60.0
    report("5 (non-homeomorphism)", ok, elapsed)
    assert witness is None
    assert elapsed < 60.0


def test_criterion_6_round_trips(sigma_f6, sigma_f):
    t0 = time.perf_counter()
    k5 = Decomposition(k=5, l=1, x=23, a=38, y=1, b=16, type=(28, 6, 10, 4))
    rep5 = round_trip_check(sigma_f6, k5)
    sigma_prime_ok = rep5.reassembled.sigma == perm(SIGMA_PRIME, 44)
    delta = generators(11)[1]
    delta_ok = rep5.reassembled.sigma.conjugated_by(delta**-4) == sigma_f6.sigma
    all_ok = True
    for fp in (sigma_f6, sigma_f):
        for dec in find_decompositions(fp):
            rep = round_trip_check(fp, dec)
            kappa, dlt, _, _ = generators(fp.n)
            t = kappa**rep.p * dlt**rep.q
            if rep.reassembled.sigma.conjugated_by(t.inverse()) != fp.sigma:
                all_ok = False
    elapsed = time.perf_counter() - t0
    ok = sigma_prime_ok and delta_ok and (rep5.p, rep5.q) == (0, 4) and all_ok and elapsed < 30.0
    report("6 (round-trip conjugacy, factual part)", ok, elapsed,
           "rebuild matches the documented permutation; delta power is 4")
    assert sigma_prime_ok
    assert delta_ok
    assert (rep5.p, rep5.q) == (0, 4)
    assert all_ok
    assert elapsed < 30.0


def test_criterion_6_single_delta_step_as_stated(sigma_f6):
    """The k=5 rebuild goes back to sigma_f6 by one relabeling of the second
    curve alone: a pure delta power, with no kappa, eta or mu.

    The power is the one the cut site forces.  The rebuild happens on a
    torus, whose only site is (1, 2), while the cut's site is (1, 16), at even
    arc 16 // 2 = 8; carrying arc 8 back to arc 1 takes q = (1 - 8) mod 11 = 4
    delta steps.  delta^q is moreover the only element of the relabeling group
    that carries sigma' to sigma_f6, so no sign or composition-order
    convention gives a single step.
    """
    t0 = time.perf_counter()
    k5 = Decomposition(k=5, l=1, x=23, a=38, y=1, b=16, type=(28, 6, 10, 4))
    rep = round_trip_check(sigma_f6, k5)
    delta = generators(11)[1]
    sigma_prime = rep.reassembled.sigma
    q = (1 - 16 // 2) % 11
    holds = delta**-q * sigma_prime * delta**q == sigma_f6.sigma
    carriers = [
        t for t in twist_group(11)
        if t.inverse() * sigma_prime * t == sigma_f6.sigma
    ]
    ok = q == 4 and holds and carriers == [delta**q]
    report("6 (single delta relabeling, power forced by the site)", ok,
           time.perf_counter() - t0,
           f"delta^{q} is the only relabeling carrying sigma' to sigma_f6")
    assert q == 4
    assert holds, f"delta^-{q} * sigma' * delta^{q} != sigma_f6"
    assert carriers == [delta**q]


def test_criterion_7_census():
    t0 = time.perf_counter()
    n1 = enumerate_filling(1, single_cycle=True)
    n1_orbits = len(census_records(1, single_cycle=True)[1])
    n3 = enumerate_filling(3, single_cycle=True)
    n5_orbits = len(census_records(5, single_cycle=True)[1])
    solutions = {Permutation(p).one_line() for p in enumerate_filling(5, single_cycle=True)}
    closed = all(
        Permutation(one).conjugated_by(g).one_line() in solutions
        for one in solutions
        for g in generators(5)
    )
    elapsed = time.perf_counter() - t0
    ok = (
        len(n1) == 2
        and n1_orbits == 1
        and n3 == []
        and 1 <= n5_orbits <= upper_bound(3)
        and closed
        and elapsed < 300.0
    )
    report("7 (census)", ok, elapsed,
           f"n=5: {len(solutions)} solutions in {n5_orbits} orbits, bound {upper_bound(3)}")
    assert len(n1) == 2
    assert n1_orbits == 1
    assert n3 == []
    assert 1 <= n5_orbits <= upper_bound(3)
    assert closed
    assert elapsed < 300.0


def test_criterion_8_property_suites(zeta, sigma_f, sigma_f6, f4, f1):
    t0 = time.perf_counter()
    cases = 0
    failures = []

    # the left-turn map has order four on every valid permutation
    pool = [zeta, sigma_f, sigma_f6, f4, f1]
    pool += [validate(Permutation(p), 5) for p in enumerate_filling(5, single_cycle=True)]
    pool += [validate(Permutation(p), 2) for p in enumerate_filling(2, single_cycle=False)]
    pool += [validate(Permutation(p), 3) for p in enumerate_filling(3, single_cycle=False)]
    for fp in pool:
        q_n = opp_shift(fp.n)
        if (q_n * fp.sigma) ** 4 != identity(4 * fp.n):
            failures.append(f"left-turn order at {fp!r}")
        cases += 1

    # tau and the opposite shift anticommute
    for n in range(1, 13):
        q_n = opp_shift(n)
        if tau(n) * q_n != q_n * tau(n).inverse():
            failures.append(f"anticommutation at n={n}")
        cases += 1

    # relabeling-group conjugation preserves validity (full groups)
    for fp in (f1, sigma_f, zeta):
        for t in twist_group(fp.n):
            if not is_valid(fp.sigma.conjugated_by(t), fp.n):
                failures.append(f"validity lost under {t!r}")
            cases += 1

    # every found decomposition separates and never leaves a genus-2 remainder
    for fp in (sigma_f6, sigma_f, f4):
        for dec in find_decompositions(fp):
            if not reference_separating(fp, dec):
                failures.append(f"separating check at {dec}")
            if dec.l == 2:
                failures.append(f"genus-2 remainder at {dec}")
            cases += 2

    elapsed = time.perf_counter() - t0
    ok = not failures and cases >= 1000
    report("8 (property suites)", ok, elapsed, f"{cases} cases, {len(failures)} failures")
    assert cases >= 1000
    assert failures == []
