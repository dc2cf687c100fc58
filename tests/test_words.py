import doctest
import random

import pytest

from diffpoly.core import PairOp, PopulationVector
from diffpoly.optimize import energy

import word_oracle
from conftest import random_population
from word_oracle import (
    all_permutations,
    apply_word,
    commutation_classes,
    inversions,
    reduced_words,
    stopping_permutation,
    total_commutation_classes,
)


def test_oracle_doctests():
    # the oracle lives outside the package, where test_doctests does not walk
    result = doctest.testmod(word_oracle)
    assert result.failed == 0 and result.attempted == 8


class TestReducedWords:
    def test_longest_element_s3(self):
        words = reduced_words((3, 2, 1))
        assert words == ((1, 2, 1), (2, 1, 2))
        assert len(commutation_classes((3, 2, 1))) == 2

    def test_identity(self):
        assert reduced_words((1, 2, 3)) == ((),)
        assert commutation_classes((1, 2, 3)) == (((),),)

    def test_words_are_reduced_and_correct(self):
        for perm in all_permutations(4):
            length = inversions(perm)
            for word in reduced_words(perm):
                assert len(word) == length
                assert apply_word(word, 4) == perm

    def test_commuting_letters_identified(self):
        # s1 s3 = s3 s1: one class of two words
        classes = commutation_classes((2, 1, 4, 3))
        assert len(classes) == 1
        assert classes[0] == ((1, 3), (3, 1))

    def test_total_classes_small(self):
        assert total_commutation_classes(2) == 2
        assert total_commutation_classes(3) == 7
        assert total_commutation_classes(4) == 43

    @pytest.mark.parametrize("letter", [0, 3])
    def test_apply_word_rejects_letters_outside_1_to_n_minus_1(self, letter):
        with pytest.raises(ValueError, match=f"letter {letter} is outside 1..2"):
            apply_word((1, letter), 3)

    def test_class_members_share_length_and_target(self):
        for perm in all_permutations(4):
            for cls in commutation_classes(perm):
                lengths = {len(w) for w in cls}
                targets = {apply_word(w, 4) for w in cls}
                assert lengths == {inversions(perm)}
                assert targets == {perm}


class TestStoppingPermutation:
    def test_reference_pattern(self):
        # weights ranked (2, 1, 3) stop at population ranks (3, 1, 2)
        assert stopping_permutation((2, 1, 3)) == (3, 1, 2)

    def test_increasing_weights_reverse(self):
        assert stopping_permutation((1, 2, 3, 4)) == (4, 3, 2, 1)

    def test_rejects_ties(self):
        with pytest.raises(ValueError):
            stopping_permutation((1, 1, 2))

    def test_no_energy_extracting_op_at_stop(self):
        rnd = random.Random(8)
        n = 5
        weights = tuple(rnd.sample(range(1, 100), n))
        order = stopping_permutation(weights)
        # build a state whose population ranks follow the stopping pattern
        levels = sorted(random_population(rnd, n))
        state = [None] * n
        for rank, vertex in enumerate(order):
            state[vertex - 1] = levels[rank]
        state = PopulationVector(state)
        base = energy(weights, state)
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                image = PairOp.of(i, j).apply(state)
                assert energy(weights, image) >= base
