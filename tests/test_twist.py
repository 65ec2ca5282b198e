"""Relabeling group: generators, closed form, equivalence, least conjugates."""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from fillperm import (
    BoundExceeded,
    Permutation,
    are_equivalent,
    generators,
    read_census,
    twist_group,
    validate,
)

from fillperm.cli import load_valid
from fillperm.surgery import _reverse_second
from fillperm.twist import _least, _slice_table

from conftest import (
    FIXTURE_TEXTS,
    assert_as_if_checked,
    conjugate_oneline,
    identity,
    is_valid,
    order,
    perm,
)
from random_pairs import random_minimal_pair

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden"
DATA = Path(__file__).resolve().parent / "data"


def canonical_form(fp):
    """The one-line images of sigma's least conjugate under the group."""
    return tuple(_least(fp)[0])


def test_generators_n1():
    kappa, delta, eta, mu = generators(1)
    assert kappa == identity(4)
    assert delta == identity(4)
    assert eta == perm("(1,3)", 4)
    assert mu == perm("(1,2)(3,4)", 4)


def test_generators_n6_kappa_delta():
    kappa, delta, _, _ = generators(6)
    assert kappa == perm("(1,3,5,7,9,11)(13,15,17,19,21,23)", 24)
    assert delta == perm("(2,4,6,8,10,12)(14,16,18,20,22,24)", 24)


def _cycle_generators(n):
    """kappa and delta as cycle lists, eta by an index loop and mu as a list
    of transpositions: the reference the arc maps are checked against."""
    m = 4 * n
    kappa = Permutation.from_cycles([list(range(1, 2 * n, 2)), list(range(2 * n + 1, m, 2))], m)
    delta = Permutation.from_cycles(
        [list(range(2, 2 * n + 1, 2)), list(range(2 * n + 2, m + 1, 2))], m
    )
    imgs = list(range(1, m + 1))
    for i in range(1, n + 1):
        j = (2 - i) % n or n
        imgs[(2 * i - 1) - 1] = 2 * j - 1 + 2 * n
        imgs[(2 * i - 1 + 2 * n) - 1] = 2 * j - 1
    eta = Permutation(imgs)
    mu = Permutation.from_cycles([[e, e + 1] for e in range(1, m, 2)], m)
    return kappa, delta, eta, mu


@pytest.mark.parametrize("n", range(1, 17))
def test_generators_match_cycle_construction(n):
    assert [g.one_line() for g in generators(n)] == [
        g.one_line() for g in _cycle_generators(n)
    ]


def test_generators_refuse_n_below_1():
    with pytest.raises(ValueError, match="n must be >= 1"):
        generators(0)


def test_eta_matches_plain_bar_swap_for_tiny_n():
    # for n <= 2 orientation reversal degenerates to the bar swap
    assert generators(1)[2] == perm("(1,3)", 4)
    assert generators(2)[2] == perm("(1,5)(3,7)", 8)


def test_eta_reverses_arc_order():
    # reversing the first curve renumbers arc i to 2-i mod n
    eta = generators(6)[2]
    assert eta == perm("(1,13)(3,23)(5,21)(7,19)(9,17)(11,15)", 24)


@pytest.mark.parametrize("n", [1, 2, 3, 6, 11])
def test_involutions(n):
    _, _, eta, mu = generators(n)
    assert eta * eta == identity(4 * n)
    assert mu * mu == identity(4 * n)
    if n > 1:
        assert order(eta) == 2
        assert order(mu) == 2


def test_twist_group_n1_contains_expected():
    group = twist_group(1)
    assert perm("(1,3)", 4) in group
    assert perm("(2,4)", 4) in group
    assert perm("(1,2)(3,4)", 4) in group


def _closure_search(n):
    """Breadth-first closure of the four generators: the reference the closed
    form is checked against."""
    gens = [g.one_line() for g in generators(n)]
    identity = tuple(range(1, 4 * n + 1))
    seen = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for t in frontier:
            for g in gens:
                prod = tuple(g[v - 1] for v in t)
                if prod not in seen:
                    seen.add(prod)
                    new.append(prod)
        frontier = new
    return sorted(seen)


@pytest.mark.parametrize("n", range(1, 12))
def test_twist_group_matches_closure_search(n):
    group = twist_group(n)
    assert [t.one_line() for t in group] == _closure_search(n)
    assert len(group) == 8 * n * n


@pytest.mark.parametrize("n", [1, 2, 3, 5, 6])
def test_twist_group_closure_properties(n):
    group = twist_group(n)
    elements = set(group)
    assert identity(4 * n) in elements
    for g in generators(n):
        assert g in elements
    # closed under inverse and sampled products
    for t in group:
        assert t.inverse() in elements
    sample = group[:: max(1, len(group) // 12)]
    for t1 in sample:
        for t2 in sample:
            assert t1 * t2 in elements


@pytest.mark.parametrize("n", [1, 2, 5, 6])
def test_twist_group_order(n):
    # two independent label cyclings, two orientation flips, one curve swap
    assert len(twist_group(n)) == 8 * n * n


@pytest.mark.parametrize("n", [2, 5, 6])
def test_elements_preserve_or_swap_parity_classes(n):
    for t in twist_group(n):
        parities = {(e % 2, t(e) % 2) for e in range(1, 4 * n + 1)}
        assert parities in (
            {(0, 0), (1, 1)},  # preserves curve roles
            {(0, 1), (1, 0)},  # swaps curve roles
        )


@pytest.mark.parametrize("n", [*range(1, 17), 63])
def test_stabilizer_of_label_1_is_regular_on_even_labels(n):
    # the census slice sigma(1) = 2 rests on this: the relabelings that fix
    # label 1 fix every odd label and move label 2 onto each even label once,
    # so each orbit meets the slice in 1 / 2n of its members
    m = 4 * n
    stabilizer = [t.one_line() for t in twist_group(n) if t(1) == 1]
    assert len(stabilizer) == 2 * n
    assert generators(n)[1].one_line() in stabilizer
    assert _reverse_second(n).one_line() in stabilizer
    for t in stabilizer:
        assert all(t[x - 1] == x for x in range(1, m + 1, 2))
    assert sorted(t[1] for t in stabilizer) == list(range(2, m + 1, 2))


@pytest.mark.parametrize("n", range(1, 6))
def test_twist_group_elements_hold_checked_images(n):
    for t in twist_group(n):
        assert_as_if_checked(t)


@pytest.mark.parametrize("name", sorted(FIXTURE_TEXTS))
def test_canonical_form_and_witness_hold_checked_images(name, request):
    fp = request.getfixturevalue(name)
    canon = validate(Permutation(canonical_form(fp)), fp.n)
    assert canon.region_count == fp.region_count
    group = twist_group(fp.n)
    for t in (group[0], group[len(group) // 2], group[-1]):
        relabeled = validate(fp.sigma.conjugated_by(t), fp.n)
        witness = are_equivalent(fp, relabeled)
        assert_as_if_checked(witness)
        assert fp.sigma.conjugated_by(witness) == relabeled.sigma


def test_bound_checks():
    # the table keys labels by bytes, which is the only bound on n
    with pytest.raises(BoundExceeded, match="n=64 exceeds 63"):
        twist_group(64)
    with pytest.raises(BoundExceeded, match="n must be >= 1"):
        twist_group(0)


def test_equivalence_beyond_sixteen_crossings():
    # sigma_F6 # sigma_Z at site 1 has genus 9 (n = 17), and its copy is
    # relabeled by kappa^3 delta^5 eta mu
    fp = load_valid(str(DATA / "g9_f6_z.pair"))
    copy = load_valid(str(DATA / "g9_f6_z_relabeled.pair"))
    group = twist_group(fp.n)
    assert fp.n == 17 and len(group) == 8 * 17**2
    kappa, delta, eta, mu = generators(17)
    scan = [t for t in group if fp.sigma.conjugated_by(t) == copy.sigma]
    assert scan == [kappa**3 * delta**5 * eta * mu]
    assert are_equivalent(fp, copy) == scan[0]
    canon = canonical_form(fp)
    assert canon == canonical_form(copy)
    assert canon == min(fp.sigma.conjugated_by(t).one_line() for t in group)


def test_orbit_answers_survive_random_relabelings_up_to_n_63():
    # at each n a seeded minimal pair, a seeded kappa^a delta^b eta^c mu^d
    # copy of it and a second pair: the copy has the pair's canonical form,
    # the witness either way carries one onto the other, and the second pair
    # gets the same answer from both.  The table at n = 63 holds about
    # 20 MB, so each n's is dropped after use.
    rng = random.Random(32)
    for n in range(11, 64, 4):
        fp, other = random_minimal_pair(n, rng), random_minimal_pair(n, rng)
        kappa, delta, eta, mu = generators(n)
        a, b, c, d = rng.randrange(n), rng.randrange(n), rng.randrange(2), rng.randrange(2)
        copy = validate(fp.sigma.conjugated_by(kappa**a * delta**b * eta**c * mu**d), n)
        assert canonical_form(copy) == canonical_form(fp), n
        for one, two in ((fp, copy), (copy, fp)):
            witness = are_equivalent(one, two)
            assert witness is not None and one.sigma.conjugated_by(witness) == two.sigma, n
        assert (are_equivalent(fp, other) is None) == (are_equivalent(copy, other) is None), n
        _slice_table.cache_clear()


def test_conjugation_preserves_validity_full_group(zeta, sigma_f, f1):
    for fp in (f1, sigma_f, zeta):
        for t in twist_group(fp.n):
            assert is_valid(fp.sigma.conjugated_by(t), fp.n)


def test_are_equivalent_reflexive(zeta):
    witness = are_equivalent(zeta, zeta)
    assert witness is not None
    assert zeta.sigma.conjugated_by(witness) == zeta.sigma


def test_are_equivalent_f1_pair(f1):
    other = validate(perm("(1,4,3,2)", 4), 1)
    witness = are_equivalent(f1, other)
    assert witness is not None
    assert f1.sigma.conjugated_by(witness) == other.sigma


def test_are_equivalent_zeta_pair(zeta, zeta_prime):
    assert are_equivalent(zeta, zeta_prime) is None


def test_are_equivalent_size_mismatch(zeta, f1):
    with pytest.raises(ValueError):
        are_equivalent(zeta, f1)


def test_are_equivalent_symmetric_transitive(sigma_f):
    # conjugates of a fixture give a ready-made equivalence class
    group = twist_group(5)
    others = [
        validate(sigma_f.sigma.conjugated_by(t), 5)
        for t in group[:: len(group) // 4]
    ]
    for other in others:
        w1 = are_equivalent(sigma_f, other)
        w2 = are_equivalent(other, sigma_f)
        assert w1 is not None and w2 is not None
    assert are_equivalent(others[0], others[-1]) is not None


def test_canonical_form_constant_on_orbit(f1, zeta, zeta_prime):
    other = validate(perm("(1,4,3,2)", 4), 1)
    assert canonical_form(f1) == canonical_form(other)
    assert canonical_form(zeta) != canonical_form(zeta_prime)


def test_canonical_form_idempotent_and_valid(zeta, sigma_f):
    for fp in (zeta, sigma_f):
        canon = canonical_form(fp)
        wrapped = validate(Permutation(canon), fp.n)
        assert wrapped.region_count == fp.region_count
        assert canonical_form(wrapped) == canon


def brute_canonical(sigma, group):
    """Oracle: the least conjugate over the whole group."""
    return min(conjugate_oneline(sigma, t) for t in group)


def brute_witness(sigma1, sigma2, group):
    """Oracle: the first t of the sorted group with t sigma1 t^-1 == sigma2.
    Such a t sends t(1) to t(sigma1(1)), so one coordinate rules out most t."""
    for t in group:
        if t[sigma1[0] - 1] == sigma2[t[0] - 1] and conjugate_oneline(sigma1, t) == sigma2:
            return t
    return None


def check_against_brute_force(forms, n, rng):
    """Two seeded relabelings of each form, which are neither in the slice
    nor least: canonical form, the witness between the two, and no witness
    to a relabeling of the next form, all as the oracles give them."""
    group = [t.one_line() for t in twist_group(n)]
    copies = [
        tuple(conjugate_oneline(form, rng.choice(group)) for _ in range(2)) for form in forms
    ]
    for idx, (a, b) in enumerate(copies):
        fa, fb = validate(Permutation(a), n), validate(Permutation(b), n)
        assert canonical_form(fa) == brute_canonical(a, group)
        witness = are_equivalent(fa, fb)
        assert witness is not None and witness.one_line() == brute_witness(a, b, group)
        other = copies[(idx + 1) % len(copies)][1]
        if len(copies) > 1:
            assert brute_witness(a, other, group) is None
            assert are_equivalent(fa, validate(Permutation(other), n)) is None
    return copies


@pytest.mark.parametrize("n", range(1, 6))
def test_orbit_answers_match_brute_force_on_general_census(n):
    forms = [r.canonical_form for r in read_census(GOLDEN / f"census_general_n{n}.jsonl")]
    copies = check_against_brute_force(forms, n, random.Random(n))
    if n > 1:
        assert any(a[0] not in (2, 2 * n + 2) for a, _ in copies)


def test_orbit_answers_match_brute_force_at_genus_5():
    # every class whose stabilizer is not trivial, where the witness is one
    # of several, and a seeded sample of the free classes
    records = read_census(DATA / "census_single_n9.jsonl.gz")
    rng = random.Random(59)
    forms = [r.canonical_form for r in records if r.orbit_size_raw < 648]
    assert len(forms) == 548
    forms += [r.canonical_form for r in rng.sample(records, 40) if r.orbit_size_raw == 648]
    check_against_brute_force(forms, 9, rng)
