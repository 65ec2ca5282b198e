"""Permutation algebra: parsing, composition, cycles, group laws."""

from __future__ import annotations

import time

import pytest
from hypothesis import given, seed, strategies as st

from fillperm import CycleParseError, Permutation
from fillperm.perm import parse_cycle_text

from conftest import ZETA, assert_as_if_checked, identity, order, perm


def random_perm(size):
    return st.permutations(range(1, size + 1)).map(Permutation)


perms = st.integers(min_value=1, max_value=12).flatmap(random_perm)


def test_parse_four_cycle():
    p = perm("(1,2,3,4)", 4)
    assert [p(e) for e in (1, 2, 3, 4)] == [2, 3, 4, 1]


def test_parse_empty_is_identity():
    assert perm("", 4) == identity(4)
    assert perm("()", 4) == identity(4)


def test_parse_zeta_spot_values():
    z = perm(ZETA, 24)
    assert z(1) == 10
    assert z(24) == 5
    assert z(13) == 2


def test_parse_tolerates_whitespace():
    assert perm(" ( 1 , 2 )\n(3, 4) ", 4) == perm("(1,2)(3,4)", 4)


def test_parse_nondisjoint_applies_leftmost_first():
    # (1,2) then (2,3): 1 -> 2 -> 3
    p = perm("(1,2)(2,3)", 3)
    assert p(1) == 3 and p(2) == 1 and p(3) == 2


def _cycle(cycle, size):
    """One cycle as a permutation, by an index loop."""
    imgs = list(range(1, size + 1))
    for s, t in zip(cycle, cycle[1:] + cycle[:1]):
        imgs[s - 1] = t
    return Permutation(imgs)


cycle_lists = st.integers(min_value=1, max_value=10).flatmap(
    lambda size: st.tuples(
        st.just(size),
        st.lists(st.lists(st.integers(1, size), unique=True), max_size=6),
    )
)


@seed(1603)
@given(cycle_lists)
def test_from_cycles_is_the_leftmost_first_product(case):
    # the reference: each cycle as its own permutation, composed so that the
    # leftmost acts first; the cycles may overlap
    size, cycles = case
    product = identity(size)
    for cycle in cycles:
        product = _cycle(cycle, size) * product
    built = Permutation.from_cycles(cycles, size)
    assert built == product
    assert_as_if_checked(built)


@pytest.mark.parametrize(
    "text,message_part,position",
    [
        ("(1,2,2)", "repeated symbol 2", 5),
        ("(1,9)", "out of range", 3),
        ("(0,1)", "out of range", 1),
        ("(1,,2)", "expected a symbol", 3),
        ("1,2)", "expected '('", 0),
        ("(1,2", "expected ',' or ')'", 4),
        ("(1 2)", "expected ',' or ')' but found '2'", 3),
        ("(1,2 ", "expected ',' or ')' but found 'end of input'", 5),
        ("(", "expected a symbol but found 'end of input'", 1),
        (")(", "expected '(' but found ')'", 0),
        ("(1,5)", "symbol 5 out of range 1..4", 3),
        # accepted: any whitespace inside a cycle, a decimal digit of any script
        ("(1,\t2)\n(3\n,4)", [[1, 2], [3, 4]], None),
        ("(\uff11,2)", [[1, 2]], None),
        # a digit that is not decimal joins the symbol, which int() refuses
        ("(\u00b2,1)", "invalid literal for int() with base 10: '\u00b2'", None),
        # a separator where a symbol belongs, or whitespace between symbols
        ("(,1)", "expected a symbol but found ','", 1),
        ("(1,2,)", "expected a symbol but found ')'", 5),
        ("(1,2)(3\t4,5)", "expected ',' or ')' but found '4'", 8),
    ],
)
def test_parse_errors_report_position(text, message_part, position):
    if isinstance(message_part, list):
        assert parse_cycle_text(text, 4) == message_part
        return
    with pytest.raises(ValueError) as exc:
        perm(text, 4)
    if position is None:
        assert type(exc.value) is ValueError and str(exc.value) == message_part
        return
    assert type(exc.value) is CycleParseError
    assert message_part in str(exc.value)
    assert str(exc.value).endswith(f" (at position {position})")
    assert exc.value.position == position


def test_unbounded_parse_checks_the_notation_only():
    # a pair file's body is parsed before its size is known: symbols out of
    # range or repeated in their cycle are left to the caller, and a
    # notation error is reported as the bounded parse reports it
    assert parse_cycle_text("(0,9,9)(12)", None) == [[0, 9, 9], [12]]
    assert parse_cycle_text(" ( 1 ,2)()", None) == [[1, 2], []]
    # the bounded parse reports a repeat before a later notation error
    with pytest.raises(CycleParseError, match="repeated symbol 9"):
        parse_cycle_text("(9,9", 100)
    with pytest.raises(CycleParseError, match="expected ',' or '\\)'"):
        parse_cycle_text("(9,9", None)
    for text in ("(1,,2)", "(9,8", "(2 1)", "(3,4)5", "(1,2,)"):
        with pytest.raises(CycleParseError) as bounded:
            parse_cycle_text(text, 100)
        with pytest.raises(CycleParseError) as unbounded:
            parse_cycle_text(text, None)
        assert str(unbounded.value) == str(bounded.value)


def test_refused_parse_is_linear_in_the_text():
    # about 10**5 characters each: a parse that backtracks or rescans per
    # character or symbol would take minutes, a linear one takes milliseconds
    n = 10**5
    run = ",".join(map(str, range(1, n // 5)))
    cases = [  # text, its error unbounded, its error with size n
        ("(" + " " * n + "x", "expected a symbol", "expected a symbol"),
        ("(1" + " " * n + "x", "expected ','", "expected ','"),
        ("(" + "1," * (n // 2) + "x", "expected a symbol", "repeated symbol 1"),
        ("(" + run + " x", "expected ','", "expected ','"),
    ]
    for text, unbounded, bounded in cases:
        for size, message in ((None, unbounded), (n, bounded)):
            start = time.perf_counter()
            with pytest.raises(CycleParseError, match=message):
                parse_cycle_text(text, size)
            assert time.perf_counter() - start < 2.0, (text[:20], size)


def test_compose_identity_law():
    z = perm(ZETA, 24)
    assert identity(24) * z == z
    assert z * z.inverse() == identity(24)


def test_compose_q_squared():
    q = perm("(1,2,3,4)", 4)
    assert (q * q).cycle_string() == "(1,3)(2,4)"


def test_compose_size_mismatch():
    with pytest.raises(ValueError, match="size mismatch"):
        perm("(1,2)", 2) * perm("(1,2)", 4)


def test_inverse_of_cycle_reverses():
    assert perm("(1,2,3,4)", 4).inverse() == perm("(1,4,3,2)", 4)


def test_inverse_zeta_first_cycle():
    z = perm(ZETA, 24)
    assert z.inverse().cycles()[0] == [1, 12, 3, 22, 17, 20, 15, 10]


def test_power_shift():
    q = perm("(1,2,3,4)", 4)
    assert q**2 == perm("(1,3)(2,4)", 4)
    assert q**0 == identity(4)
    assert q**-1 == q.inverse()
    assert q ** order(q) == identity(4)


def test_cycles_of_identity():
    assert identity(4).cycles() == [[1], [2], [3], [4]]


def test_cycles_of_zeta_lengths():
    z = perm(ZETA, 24)
    assert sorted(len(c) for c in z.cycles()) == [4, 4, 8, 8]


def test_format_identity():
    assert identity(6).cycle_string() == "()"


def test_format_four_cycle():
    assert perm("(2,3,4,1)", 4).cycle_string() == "(1,2,3,4)"


def test_record_round_trip():
    z = perm(ZETA, 24)
    assert Permutation.from_record(z.to_record()) == z


def test_not_a_bijection_rejected():
    # the public constructor checks every image, whatever the builders skip
    for images in (
        [1, 1, 3],  # a repeat
        [0, 1, 2],  # an image 0
        [1, 2, 4],  # an image m + 1
        [1.0, 2, 3],
        ["1", 2, 3],
    ):
        with pytest.raises(ValueError, match=r"^not a bijection on 1\.\.3: images "):
            Permutation(images)


@given(perms)
def test_parse_format_round_trip(p):
    assert perm(p.cycle_string(), p.size) == p


@given(st.integers(min_value=1, max_value=8).flatmap(
    lambda m: st.tuples(random_perm(m), random_perm(m), random_perm(m))
))
def test_compose_associative(triple):
    p, q, r = triple
    assert (p * q) * r == p * (q * r)


@given(perms)
def test_inverse_two_sided(p):
    ident = identity(p.size)
    assert p * p.inverse() == ident
    assert p.inverse() * p == ident


@given(perms, st.integers(-6, 6), st.integers(-6, 6))
def test_power_addition(p, a, b):
    assert p ** (a + b) == (p**a) * (p**b)


@given(perms)
def test_cycles_partition(p):
    cycles = p.cycles()
    symbols = [s for c in cycles for s in c]
    assert sorted(symbols) == list(range(1, p.size + 1))


@given(perms, perms)
def test_conjugation_definition(p, t):
    if p.size != t.size:
        return
    assert p.conjugated_by(t) == t * p * t.inverse()


@given(
    st.integers(min_value=1, max_value=12).flatmap(
        lambda m: st.tuples(random_perm(m), random_perm(m))
    ),
    st.integers(-6, 6),
)
def test_unchecked_builders_hold_checked_images(pair, k):
    p, t = pair
    for built in (
        p * t,
        p.inverse(),
        p.conjugated_by(t),
        p**k,
        Permutation.from_cycles(p.cycles(), p.size),
    ):
        assert_as_if_checked(built)


class _Symbol:
    """An integer symbol that is not an int, as a numpy integer is."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_from_cycles_takes_symbols_as_ints():
    p = Permutation.from_cycles([[_Symbol(1), _Symbol(3)]], 3)
    assert p == perm("(1,3)", 3)
    assert_as_if_checked(p)
    for cycle in ([1.0, 2], ["1", 2]):
        with pytest.raises(TypeError):
            Permutation.from_cycles([cycle], 3)


def test_negative_size_refused():
    # both once gave a size-0 permutation
    with pytest.raises(ValueError, match=r"^size must be nonnegative$"):
        Permutation.from_cycles([], -3)
    with pytest.raises(ValueError, match=r"^size must be nonnegative$"):
        Permutation.from_cycle_string("()", -2)


def test_negative_size_refused_before_parsing():
    # a symbol in the text once reached the parser's range check first:
    # "symbol 1 out of range 1..-2"
    for text in ("(1,2)", "(1)", "(5,3)"):
        with pytest.raises(ValueError, match=r"^size must be nonnegative$"):
            Permutation.from_cycle_string(text, -2)
