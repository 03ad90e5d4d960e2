"""Finite and eventually periodic words over the alphabet {1..n}."""

import pytest

from cuntzlab import (
    AlphabetMismatch,
    EmptyWord,
    EventuallyPeriodicWord,
    SchemaError,
    all_words,
    tail_equivalent,
    words_upto,
)
from cuntzlab.words import primitive_root


def ep(pre, per, n=2):
    return EventuallyPeriodicWord(tuple(pre), tuple(per), n)


class TestEnumeration:
    def test_all_words_exact_length(self):
        assert list(all_words(2, 0)) == [()]
        assert list(all_words(2, 1)) == [(1,), (2,)]
        # lexicographic order, all 4 two-letter words
        assert list(all_words(2, 2)) == [(1, 1), (1, 2), (2, 1), (2, 2)]
        assert len(list(all_words(3, 3))) == 27

    def test_words_upto_includes_empty(self):
        assert list(words_upto(2, 1)) == [(), (1,), (2,)]
        assert len(list(words_upto(2, 3))) == 1 + 2 + 4 + 8


class TestCanonicalForm:
    def test_preperiod_absorbed_into_period(self):
        # 1 2 2 2 ... and 1 (2)^inf describe the same sequence
        assert ep((1, 2), (2,)) == ep((1,), (2,))

    def test_period_reduced_to_primitive_root(self):
        assert ep((), (1, 2, 1, 2)) == ep((), (1, 2))
        assert ep((), (1, 1, 1)) == ep((), (1,))

    def test_primitive_root_is_the_shortest_root_of_every_short_word(self):
        # the oracle tries each length r and rebuilds the word as a power of its first r letters
        for length in range(1, 9):
            for w in all_words(3 if length <= 6 else 2, length):
                r = next(r for r in range(1, length + 1) if length % r == 0 and w[:r] * (length // r) == w)
                assert primitive_root(w) == (w[:r], length // r), w
        with pytest.raises(EmptyWord):
            primitive_root(())

    def test_rotated_period_absorbed(self):
        # 1 (2 1)^inf = (1 2)^inf
        assert ep((1,), (2, 1)) == ep((), (1, 2))

    def test_distinct_words_stay_distinct(self):
        assert ep((), (1, 2)) != ep((), (2, 1))
        assert ep((1,), (1, 2)) != ep((), (1, 2))

    def test_counts(self):
        w = ep((1, 1), (1, 2))
        assert w.preperiod_length == 2
        assert w.period_length == 2
        assert not w.is_purely_periodic
        assert ep((), (1, 2)).is_purely_periodic


class TestAccessors:
    def test_letter_is_one_indexed(self):
        w = ep((1,), (1, 2))  # 1 1 2 1 2 1 2 ...
        assert [w.letter(i) for i in range(1, 6)] == [1, 1, 2, 1, 2]

    def test_prefix(self):
        assert ep((1,), (1, 2)).prefix(5) == (1, 1, 2, 1, 2)
        assert ep((1,), (1, 2)).prefix(0) == ()

    def test_starts_with(self):
        w = ep((1,), (1, 2))
        assert w.starts_with((1, 1, 2, 1))
        assert not w.starts_with((2,))
        assert w.starts_with(())

    def test_shift_drops_first_letter(self):
        w = ep((1,), (1, 2))
        assert w.shift() == ep((), (1, 2))  # 1 2 1 2 ...
        assert w.shift_by(3) == ep((), (1, 2))  # also lands on 1 2 1 2 ...
        assert w.shift_by(2) == ep((), (2, 1))
        assert w.shift_by(0) == w

    def test_prepend(self):
        assert ep((), (1, 2)).prepend((2,)) == ep((2,), (1, 2))
        # prepending can close up into a purely periodic word
        assert ep((2,), (1, 2)).prepend((1,)) == ep((), (1, 2))


class TestTailEquivalence:
    def test_shifts_of_each_other_share_a_tail(self):
        assert tail_equivalent(ep((1, 1), (1, 2)), ep((), (2, 1)))
        assert tail_equivalent(ep((), (1, 2)), ep((), (2, 1)))

    def test_different_periodic_tails(self):
        assert not tail_equivalent(ep((), (1,)), ep((), (2,)))
        assert not tail_equivalent(ep((), (1, 2)), ep((), (1, 1, 2)))

    def test_preperiod_never_matters(self):
        assert tail_equivalent(ep((2, 2, 2), (1,)), ep((), (1,)))

    def test_words_over_different_alphabets_are_refused(self):
        with pytest.raises(AlphabetMismatch, match="^words over different alphabets: 2 vs 3$"):
            tail_equivalent(ep((), (1,)), ep((), (1,), n=3))


class TestValidation:
    def test_period_must_be_nonempty(self):
        with pytest.raises(EmptyWord):
            ep((1,), ())

    def test_letters_must_lie_in_alphabet(self):
        with pytest.raises(SchemaError):
            ep((1,), (3,), n=2)
        with pytest.raises(SchemaError):
            ep((0,), (1,), n=2)
