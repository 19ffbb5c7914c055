"""Words, relators, rewriting, and algebra elements."""

import random

import pytest

from nlk import presentations
from nlk.presentations import (
    GROUP,
    STAR_ALGEBRA,
    AlgebraElement,
    Presentation,
    PresentationError,
    ReductionBudgetExceeded,
    Tensor2,
    WordBudgetExceeded,
    element_vanishes,
    k1_elements,
    kn_spanning_set,
    parse_letter,
    word_from_key,
    word_from_strs,
    word_key,
    word_to_strs,
)
from nlk.scalars import ONE, ZERO, sc


def _z2():
    return Presentation.group(["a", "b"], [["a", "b", "a^-1", "b^-1"]])


def _free2():
    return Presentation.group(["a", "b"], [])


def _star_xy():
    return Presentation.star_algebra(
        ["x", "y"],
        involution={"x": "x", "y": "y*"},
        character={"x": "0", "y": "0"},
        rules=[(["x", "x", "y"], "-1", ["y"]),
               (["y*", "y"], "0", [])])


def test_letter_parsing_and_printing():
    assert parse_letter(GROUP, "a") == ("a", 1)
    assert parse_letter(GROUP, "a^-1") == ("a", -1)
    assert parse_letter(STAR_ALGEBRA, "x*") == ("x", 1)
    assert parse_letter(STAR_ALGEBRA, "x") == ("x", 0)
    w = word_from_strs(GROUP, ["a", "b^-1"])
    assert word_to_strs(GROUP, w) == ["a", "b^-1"]
    assert word_key(GROUP, w) == "a b^-1"
    assert word_key(GROUP, ()) == "1"
    assert word_from_key(GROUP, "1") == ()
    assert word_from_key(STAR_ALGEBRA, "x* y") == (("x", 1), ("y", 0))


def test_unknown_letters_rejected_in_context():
    p = _z2()
    with pytest.raises(PresentationError):
        p.free_reduce(word_from_strs(GROUP, ["c"]))
    with pytest.raises(PresentationError):
        Presentation.group(["a"], [["a", "b"]])


def test_generator_name_rules():
    with pytest.raises(PresentationError):
        Presentation.group(["a", "a"], [])
    with pytest.raises(PresentationError):
        Presentation.group(["9a"], [])
    Presentation.group(["a_1", "Z9"], [])


# a self-adjoint x with eps(x) = i, and x <-> y with eps(x) = 1, eps(y) = 2
NOT_STAR_CHARACTERS = (({"x": "x"}, {"x": "i"}),
                       ({"x": "y", "y": "x"}, {"x": "1", "y": "2"}))


@pytest.mark.parametrize("involution, character", NOT_STAR_CHARACTERS)
def test_a_character_must_be_a_star_character(involution, character):
    with pytest.raises(PresentationError,
                       match=r"not a \*-character: eps\(x\*\)"):
        Presentation.star_algebra(list(involution), involution, character,
                                  [])
    # conjugate values, and a formal star, are *-characters
    Presentation.star_algebra(["x", "y"], {"x": "y", "y": "x"},
                              {"x": "i", "y": "-i"}, [])
    Presentation.star_algebra(["x"], {"x": "x*"}, {"x": "i"}, [])


def test_free_reduction_cancels_inverse_pairs():
    p = _free2()
    w = word_from_strs(GROUP, ["a", "b", "b^-1", "a^-1", "a"])
    assert word_to_strs(GROUP, p.free_reduce(w)) == ["a"]
    assert p.free_reduce(()) == ()


def test_free_reduction_random_sandwiches():
    p = _free2()
    rng = random.Random(101)
    letters = [("a", 1), ("a", -1), ("b", 1), ("b", -1)]
    for _ in range(200):
        u = tuple(rng.choice(letters) for _ in range(rng.randint(0, 5)))
        g = rng.choice(letters)
        # u g g^-1 v reduces to the same word as u v
        v = tuple(rng.choice(letters) for _ in range(rng.randint(0, 5)))
        with_pair = u + (g, (g[0], -g[1])) + v
        assert p.free_reduce(with_pair) == p.free_reduce(u + v)
        red = p.free_reduce(with_pair)
        assert p.free_reduce(red) == red


def test_words_up_to_counts_for_free_group():
    p = _free2()
    # freely reduced words over two generators: 1, 4, 12, 36 per length
    assert len(p.words_up_to(0)) == 1
    assert len(p.words_up_to(1)) == 5
    assert len(p.words_up_to(2)) == 17
    assert len(p.words_up_to(3)) == 53
    assert len(p.words_up_to(2, include_empty=False)) == 16
    for w in p.words_up_to(3):
        assert p.free_reduce(w) == w


def test_equal_mod_relators_sees_commutation():
    p = _z2()
    ab = word_from_strs(GROUP, ["a", "b"])
    ba = word_from_strs(GROUP, ["b", "a"])
    assert p.equal_mod_relators(ab, ba, insertions=1)
    aa = word_from_strs(GROUP, ["a", "a"])
    assert not p.equal_mod_relators(ab, aa, insertions=2)


def test_star_involution_reverses_and_stars():
    p = _star_xy()
    w = word_from_strs(STAR_ALGEBRA, ["x", "y*"])
    assert word_to_strs(STAR_ALGEBRA, p.involve_word(w)) == ["y", "x"]
    assert p.involve_word(p.involve_word(w)) == w


def test_star_rewriting_applies_rules_leftmost():
    p = _star_xy()
    coeff, word = p.reduce(word_from_strs(STAR_ALGEBRA, ["x", "x", "y"]))
    assert coeff == sc(-1)
    assert word_to_strs(STAR_ALGEBRA, word) == ["y"]
    # the zero-coefficient rule kills the whole word
    coeff, word = p.reduce(word_from_strs(STAR_ALGEBRA, ["x", "y*", "y"]))
    assert coeff == ZERO
    assert word == ()
    # nested: x x (x x y) -> -x x y -> y
    coeff, word = p.reduce(word_from_strs(STAR_ALGEBRA,
                                          ["x", "x", "x", "x", "y"]))
    assert coeff == ONE
    assert word_to_strs(STAR_ALGEBRA, word) == ["y"]


def test_star_character_folds_along_words():
    p = Presentation.star_algebra(
        ["x"], involution={"x": "x"}, character={"x": "2"}, rules=[])
    assert p._word_character(word_from_strs(STAR_ALGEBRA, ["x", "x"])) == sc(4)
    assert p._word_character(()) == ONE


def test_step_budget_env_override(monkeypatch):
    p = _star_xy()
    word = word_from_strs(STAR_ALGEBRA, ["x", "x", "x", "x", "y"])
    # every reduction reads the budget
    monkeypatch.setattr(presentations, "STEP_BUDGET", 1)
    with pytest.raises(ReductionBudgetExceeded):
        p.reduce(word)
    monkeypatch.undo()
    coeff, red = p.reduce(word)
    assert (coeff, word_to_strs(STAR_ALGEBRA, red)) == (ONE, ["y"])


def test_algebra_element_arithmetic():
    p = _z2()
    a = AlgebraElement.from_word(p, word_from_strs(GROUP, ["a"]))
    b = AlgebraElement.from_word(p, word_from_strs(GROUP, ["b"]))
    s = a + b
    assert s.coeff(word_from_strs(GROUP, ["a"])) == ONE
    assert (s - s).is_zero()
    prod = a * b
    assert prod.coeff(word_from_strs(GROUP, ["a", "b"])) == ONE
    assert (a * a.star()).coeff(()) == ONE
    two_a = a.scale(sc(2))
    assert two_a.coeff(word_from_strs(GROUP, ["a"])) == sc(2)
    assert a.epsilon() == ONE


def test_star_element_multiplication_reduces():
    p = _star_xy()
    x = AlgebraElement.from_word(p, word_from_strs(STAR_ALGEBRA, ["x"]))
    y = AlgebraElement.from_word(p, word_from_strs(STAR_ALGEBRA, ["y"]))
    prod = x * x * y
    assert prod.coeff(word_from_strs(STAR_ALGEBRA, ["y"])) == sc(-1)
    assert y.star() * y == AlgebraElement.zero(p)
    assert x.epsilon() == ZERO


def test_k1_elements_have_zero_character():
    p = _z2()
    for e in k1_elements(p, 2):
        assert e.epsilon() == ZERO
    for e in kn_spanning_set(p, 2, 3):
        assert e.epsilon() == ZERO


def test_tensor_legs_and_mu():
    p = _z2()
    a = AlgebraElement.from_word(p, word_from_strs(GROUP, ["a"]))
    one = AlgebraElement.one(p)
    am1 = a - one
    t = Tensor2(p, [(ONE, am1, am1)])
    t.check_legs_in_kernel()
    m = t.mu()
    # (a-1)(a-1) = a^2 - 2a + 1
    assert m.coeff(word_from_strs(GROUP, ["a", "a"])) == ONE
    assert m.coeff(word_from_strs(GROUP, ["a"])) == sc(-2)
    assert m.coeff(()) == ONE


def test_tensor_leg_outside_kernel_is_rejected():
    p = _z2()
    a = AlgebraElement.from_word(p, word_from_strs(GROUP, ["a"]))
    with pytest.raises(PresentationError):
        Tensor2(p, [(ONE, a, a)]).check_legs_in_kernel()


def test_element_vanishes_group_path_uses_relators():
    p = _z2()
    ab = AlgebraElement.from_word(p, word_from_strs(GROUP, ["a", "b"]))
    ba = AlgebraElement.from_word(p, word_from_strs(GROUP, ["b", "a"]))
    assert element_vanishes(ab - ba, insertions=1)
    a = AlgebraElement.from_word(p, word_from_strs(GROUP, ["a"]))
    assert not element_vanishes(a - AlgebraElement.one(p), insertions=2)


def test_words_up_to_stops_at_the_word_budget(monkeypatch):
    count = len(_z2().words_up_to(3))
    assert count == 1 + 4 + 12 + 36
    monkeypatch.setattr(presentations, "WORD_BUDGET", count)
    assert len(_z2().words_up_to(3)) == count
    monkeypatch.setattr(presentations, "WORD_BUDGET", count - 1)
    with pytest.raises(WordBudgetExceeded) as info:
        _z2().words_up_to(3)
    exc = info.value
    assert isinstance(exc, PresentationError)
    assert exc.code == "WORD_BUDGET_EXCEEDED"
    # refused while the last level is built: one frontier word adds at
    # most three words past the budget
    assert (exc.max_len, exc.budget) == (3, count - 1)
    assert count - 1 < exc.count <= count + 2
    assert str(exc) == (f"listing the words up to length 3 passed the budget "
                        f"of {count - 1} words at {exc.count} words")
