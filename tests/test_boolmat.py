import random

import pytest

from toeplab.boolmat import BoolMatrix
from toeplab.toeplitz import build_matrix, parse_literal

import oracles


def from_rows(*rows):
    """The matrix with these row strings, column 1 leftmost."""
    return BoolMatrix(len(rows), [int(row[::-1], 2) for row in rows])


T5_SQUARED = from_rows("00001", "00000", "10000", "00000", "00100")
T5_CUBED = from_rows("10000", "00000", "00100", "00000", "00001")
T5_FOURTH = from_rows("00100", "00000", "00001", "00000", "10000")


def random_matrix(rng, n):
    return BoolMatrix(n, (rng.getrandbits(n) for _ in range(n)))


def as_lists(mat):
    return [[mat.get(i, j) for j in range(1, mat.n + 1)] for i in range(1, mat.n + 1)]


class TestIdentity:
    def test_one_by_one(self):
        assert BoolMatrix.identity(1) == BoolMatrix(1, [1])

    def test_three_by_three(self):
        eye = BoolMatrix.identity(3)
        assert as_lists(eye) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_left_identity_law(self):
        rng = random.Random(7)
        for _ in range(10):
            a = random_matrix(rng, 8)
            assert BoolMatrix.identity(8).multiply(a) == a

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError):
            BoolMatrix.identity(0)


class TestMultiply:
    def test_t5_reaches_displayed_powers(self):
        a = build_matrix(parse_literal("T5<2;4>"))
        sq = a.multiply(a)
        assert sq == T5_SQUARED
        assert sq.multiply(a) == T5_CUBED

    def test_identity_commutes(self):
        a = random_matrix(random.Random(3), 5)
        eye = BoolMatrix.identity(5)
        assert a.multiply(eye) == a
        assert eye.multiply(a) == a

    def test_transpose_antihomomorphism(self):
        rng = random.Random(11)
        for _ in range(200):
            a = random_matrix(rng, 9)
            b = random_matrix(rng, 9)
            assert a.multiply(b).transpose() == b.transpose().multiply(a.transpose())

    def test_matches_naive_product(self):
        rng = random.Random(5)
        for _ in range(25):
            a = random_matrix(rng, 7)
            b = random_matrix(rng, 7)
            assert as_lists(a.multiply(b)) == oracles.naive_multiply(as_lists(a), as_lists(b))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BoolMatrix.identity(3).multiply(BoolMatrix.identity(4))

    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_associativity_sampled(self, n):
        rng = random.Random(100 + n)
        for _ in range(40):
            a, b, c = (random_matrix(rng, n) for _ in range(3))
            assert a.multiply(b).multiply(c) == a.multiply(b.multiply(c))


class TestTranspose:
    def test_involution(self):
        rng = random.Random(2)
        for _ in range(20):
            a = random_matrix(rng, 8)
            assert a.transpose().transpose() == a

    def test_identity_fixed(self):
        assert BoolMatrix.identity(6).transpose() == BoolMatrix.identity(6)

    def test_swapped_step_sets_transpose(self):
        a = build_matrix(parse_literal("T8<1,4;2,5>"))
        b = build_matrix(parse_literal("T8<2,5;1,4>"))
        assert a.transpose() == b


class TestPower:
    def test_t5_cube_display(self):
        a = build_matrix(parse_literal("T5<2;4>"))
        assert a.power(3) == T5_CUBED

    def test_first_power(self):
        a = random_matrix(random.Random(9), 6)
        assert a.power(1) == a

    def test_zeroth_power_is_identity(self):
        a = random_matrix(random.Random(10), 6)
        assert a.power(0) == BoolMatrix.identity(6)

    def test_exponent_additivity(self):
        rng = random.Random(21)
        for _ in range(30):
            a = random_matrix(rng, 10)
            x, y = rng.randint(0, 32), rng.randint(0, 32)
            assert a.power(x + y) == a.power(x).multiply(a.power(y))

    def test_seven_splits(self):
        a = random_matrix(random.Random(23), 10)
        assert a.power(7) == a.power(3).multiply(a.power(4))

    def test_matches_naive(self):
        rng = random.Random(31)
        for _ in range(10):
            a = random_matrix(rng, 6)
            m = rng.randint(0, 9)
            assert as_lists(a.power(m)) == oracles.naive_power(as_lists(a), m)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            BoolMatrix.identity(2).power(-1)


class TestEquality:
    def test_reflexive(self):
        a = random_matrix(random.Random(1), 5)
        assert a == a

    def test_dimension_mismatch_is_unequal(self):
        assert BoolMatrix.identity(3) != BoolMatrix.identity(4)

    def test_t5_cycle_repeats(self):
        a = build_matrix(parse_literal("T5<2;4>"))
        assert a.power(3) == a.power(6)


class TestIsToeplitz:
    def test_running_example_matrix(self):
        assert build_matrix(parse_literal("T8<1,4;2,5>")).is_toeplitz()

    def test_t5_square_is_not(self):
        a = build_matrix(parse_literal("T5<2;4>"))
        assert not a.multiply(a).is_toeplitz()

    def test_identity_is(self):
        assert BoolMatrix.identity(5).is_toeplitz()

    def test_matches_naive(self):
        rng = random.Random(17)
        for _ in range(200):
            a = random_matrix(rng, rng.randint(1, 6))
            assert a.is_toeplitz() == oracles.naive_is_toeplitz(as_lists(a))


class TestFingerprint:
    def test_equal_matrices_agree(self):
        a = build_matrix(parse_literal("T8<1,4;2,5>"))
        b = BoolMatrix(8, a.rows)
        assert a.fingerprint() == b.fingerprint()

    def test_t5_cycle_collides_by_design(self):
        a = build_matrix(parse_literal("T5<2;4>"))
        assert a.power(3).fingerprint() == a.power(6).fingerprint()

    def test_classes_match_equality_classes(self):
        # 10^4 distinct random 8x8 matrices: fingerprint classes must be
        # exactly the equality classes (here, all singletons).
        rng = random.Random(42)
        seen_rows = set()
        by_fp = {}
        while len(seen_rows) < 10_000:
            a = random_matrix(rng, 8)
            if a.rows in seen_rows:
                continue
            seen_rows.add(a.rows)
            by_fp.setdefault(a.fingerprint(), set()).add(a.rows)
        for rows_class in by_fp.values():
            assert len(rows_class) == 1


class TestPaddingCanonical:
    def test_constructor_masks_stray_bits(self):
        a = BoolMatrix(3, [0b11111, 0b1000, 0b111])
        assert all(r < (1 << 3) for r in a.rows)
        assert a == BoolMatrix(3, [0b111, 0b000, 0b111])

    def test_operations_preserve_canonical_padding(self):
        rng = random.Random(77)
        for _ in range(50):
            n = rng.randint(1, 9)
            a = random_matrix(rng, n)
            b = random_matrix(rng, n)
            for out in (a.multiply(b), a.transpose(), a.power(rng.randint(0, 5))):
                assert all(r < (1 << n) for r in out.rows)


class TestSerialization:
    def test_get_is_one_indexed(self):
        a = build_matrix(parse_literal("T2<1;1>"))
        assert a.get(1, 2) == 1 and a.get(2, 1) == 1
        assert a.get(1, 1) == 0 and a.get(2, 2) == 0
        with pytest.raises(IndexError):
            a.get(0, 1)
