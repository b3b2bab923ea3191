import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopsix.groups import (
    CoverageViolation,
    FGAbelianGroup,
    ParseError,
    TableOutOfRange,
    UnsupportedDegree,
    _sum_of_copies,
    load_table,
    pi_manifold,
    pi_sphere,
)
from loopsix.homotopy import loop_factors
from loopsix.manifold import bundle_from_classes, new_four_manifold

from conftest import random_pair


ORDERS = st.lists(st.integers(min_value=0, max_value=24), max_size=4)


def direct_sum(*groups):
    """The direct sum of ``groups``, one copy of each."""
    return _sum_of_copies([(group, 1) for group in groups])


@pytest.fixture(scope="module")
def table():
    return load_table()


def factors_for(form, w2, p1, cutoff=10):
    N = new_four_manifold(form)
    return loop_factors(N, bundle_from_classes(N, w2, p1), cutoff)


class TestFGAbelianGroup:
    def test_primary_decomposition_is_canonical(self):
        assert FGAbelianGroup.from_orders(12, 2) == FGAbelianGroup.from_orders(
            4, 3, 2
        )
        assert FGAbelianGroup.from_orders(2, 4) != FGAbelianGroup.from_orders(8)

    def test_invariant_factors(self):
        assert FGAbelianGroup.from_orders(4, 3, 2).invariant_factors() == [12, 2]
        assert FGAbelianGroup.from_orders(3, 5).invariant_factors() == [15]

    def test_text(self):
        assert FGAbelianGroup.from_orders(12, 2).text() == "Z/12 + Z/2"
        assert FGAbelianGroup.free(2).text() == "Z^2"
        assert FGAbelianGroup.free(1).text() == "Z"
        assert FGAbelianGroup(0).text() == "0"
        assert FGAbelianGroup.from_orders(24, free_rank=1).text() == "Z + Z/24"

    @given(ORDERS, ORDERS, ORDERS)
    @settings(max_examples=50)
    def test_direct_sum_commutative_associative(self, a, b, c):
        A = FGAbelianGroup.from_orders(*a)
        B = FGAbelianGroup.from_orders(*b)
        C = FGAbelianGroup.from_orders(*c)
        assert direct_sum(A, B) == direct_sum(B, A)
        assert direct_sum(direct_sum(A, B), C) == direct_sum(A, direct_sum(B, C))


def one_summand_at_a_time(group):
    """Invariant factors built by multiplying each summand's slot in turn."""
    factors = []
    placed = {}
    for (p, q), n in reversed(group.counts):
        i = placed.get(p, 0)
        placed[p] = i + n
        factors += [1] * (i + n - len(factors))
        factors[i : i + n] = [f * q for f in factors[i : i + n]]
    return factors


def one_string_per_summand(free_rank, factors):
    free = {0: [], 1: ["Z"]}.get(free_rank, [f"Z^{free_rank}"])
    return " + ".join(free + [f"Z/{n}" for n in factors]) or "0"


@st.composite
def groups_with_long_runs(draw):
    """A group from a few small orders, plus runs of up to 10^4 copies of
    one prime power, over several primes."""
    group = FGAbelianGroup.from_orders(*draw(ORDERS), free_rank=draw(st.integers(0, 3)))
    runs = draw(
        st.lists(
            st.tuples(
                st.sampled_from([2, 3, 5, 7]),
                st.integers(1, 5),
                st.integers(1, 10**4),
            ),
            max_size=8,
        )
    )
    return direct_sum(group, *[FGAbelianGroup(0, (((p, p**r), n),)) for p, r, n in runs])


class TestRunsOfEqualOrders:
    """``invariant_factors`` and ``text`` work per run of equal orders and
    agree with the summand-at-a-time versions."""

    @given(groups_with_long_runs())
    @settings(max_examples=100, deadline=None)
    def test_matches_one_summand_at_a_time(self, group):
        factors = group.invariant_factors()
        assert factors == one_summand_at_a_time(group)
        assert all(a % b == 0 for a, b in zip(factors, factors[1:]))
        assert group.text() == one_string_per_summand(group.free_rank, factors)

    def test_interleaved_prime_runs(self):
        group = FGAbelianGroup.from_orders(8, 8, 4, 2, 9, 3, 3, 5)
        assert group.invariant_factors() == [360, 24, 12, 2]
        assert group.text() == "Z/360 + Z/24 + Z/12 + Z/2"

    @pytest.mark.parametrize(
        "free_rank, orders, text",
        [
            (0, (), "0"),
            (1, (), "Z"),
            (2, (), "Z^2"),
            (0, (4, 4, 2), "Z/4 + Z/4 + Z/2"),
            (1, (4, 4, 2), "Z + Z/4 + Z/4 + Z/2"),
            (2, (4, 4, 2), "Z^2 + Z/4 + Z/4 + Z/2"),
        ],
    )
    def test_free_rank_with_and_without_torsion(self, free_rank, orders, text):
        group = FGAbelianGroup.from_orders(*orders, free_rank=free_rank)
        assert group.text() == text

    def test_a_million_equal_summands(self):
        group = FGAbelianGroup(0, (((2, 2), 10**6),))
        assert group.invariant_factors() == [2] * 10**6
        assert group.text() == " + ".join(["Z/2"] * 10**6)


def test_text_never_expands_the_summands(monkeypatch):
    group = FGAbelianGroup(1, (((2, 2), 10**6), ((3, 9), 7)))
    expected = one_string_per_summand(1, one_summand_at_a_time(group))

    def refuse(self):
        raise AssertionError("text() expanded the invariant factors")

    monkeypatch.setattr(FGAbelianGroup, "invariant_factors", refuse)
    assert group.text() == expected


class TestSphereTable:
    def test_shipped_values(self, table):
        assert pi_sphere(table, 2, 3) == FGAbelianGroup.free(1)
        assert pi_sphere(table, 4, 5) == FGAbelianGroup.from_orders(2)
        assert pi_sphere(table, 2, 6) == FGAbelianGroup.from_orders(12)
        assert pi_sphere(table, 6, 11) == FGAbelianGroup.free(1)

    def test_forced_values_without_lookup(self, table):
        assert pi_sphere(table, 5, 4) == FGAbelianGroup(0)
        assert pi_sphere(table, 7, 7) == FGAbelianGroup.free(1)

    def test_stable_consistency_along_a_stem(self, table):
        # 3-stem: Z/12 at n=3, Z x Z/12 at n=4, Z/24 from n=5 on
        assert pi_sphere(table, 3, 6) == FGAbelianGroup.from_orders(12)
        assert pi_sphere(table, 4, 7) == FGAbelianGroup.from_orders(12, free_rank=1)
        for n in range(5, 13):
            assert pi_sphere(table, n, n + 3) == FGAbelianGroup.from_orders(24)

    def test_out_of_range(self, table):
        with pytest.raises(TableOutOfRange):
            pi_sphere(table, 2, 16)

    def test_degree_one(self, table):
        """The lower bounds admit n = k = 1: pi_1(S^1) is Z and pi_1(S^2) is 0."""
        assert pi_sphere(table, 1, 1) == FGAbelianGroup.free(1)
        assert pi_sphere(table, 2, 1) == FGAbelianGroup(0)

    def test_hopf_fibration_identities(self, table):
        # S^1 -> S^3 -> S^2 gives pi_k(S^2) = pi_k(S^3) for k >= 4
        for k in range(4, 16):
            assert pi_sphere(table, 2, k) == pi_sphere(table, 3, k)
        # S^3 -> S^7 -> S^4 splits: pi_k(S^4) = pi_k(S^7) + pi_{k-1}(S^3)
        for k in range(4, 16):
            assert pi_sphere(table, 4, k) == direct_sum(
                pi_sphere(table, 7, k), pi_sphere(table, 3, k - 1)
            )
        # S^7 -> S^15 -> S^8 splits likewise
        for k in range(8, 16):
            assert pi_sphere(table, 8, k) == direct_sum(
                pi_sphere(table, 15, k), pi_sphere(table, 7, k - 1)
            )

    def test_stable_range_is_constant(self, table):
        stable = {1: [2], 2: [2], 3: [24], 4: [], 5: [], 6: [2]}
        for stem, orders in stable.items():
            expected = FGAbelianGroup.from_orders(*orders)
            for n in range(stem + 2, 16 - stem):
                assert pi_sphere(table, n, n + stem) == expected, (stem, n)

    def test_parse_error(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("2 3 one\n")
        with pytest.raises(ParseError):
            load_table(bad)
        bad.write_text("2 3\n")
        with pytest.raises(ParseError):
            load_table(bad)

    def test_coverage_violations(self, tmp_path):
        below = tmp_path / "below.txt"
        below.write_text("5 4 0 2\n")
        with pytest.raises(CoverageViolation):
            load_table(below)
        diagonal = tmp_path / "diag.txt"
        diagonal.write_text("3 3 0 7\n")
        with pytest.raises(CoverageViolation):
            load_table(diagonal)

    def test_custom_table_overrides(self, tmp_path):
        custom = tmp_path / "table.txt"
        custom.write_text("2 3 0 5\n5 3 0\n")
        t = load_table(custom)
        assert pi_sphere(t, 2, 3) == FGAbelianGroup.from_orders(5)


class TestPiManifold:
    def test_d1_pinned_groups(self, table):
        factors = factors_for([[1]], [1], 5)
        expected = {
            2: FGAbelianGroup.free(2),
            3: FGAbelianGroup.free(1),
            4: FGAbelianGroup.from_orders(2),
            5: FGAbelianGroup.from_orders(2, free_rank=1),
            6: FGAbelianGroup.from_orders(12, 2),
            7: FGAbelianGroup.from_orders(2, 2),
        }
        for k, group in expected.items():
            assert pi_manifold(factors, table, k) == group

    def test_pi2_is_hurewicz_rank(self, table):
        rng = random.Random(31)
        for d in range(1, 7):
            N, b = random_pair(rng, d)
            factors = loop_factors(N, b, 4)
            assert pi_manifold(factors, table, 2) == FGAbelianGroup.free(d + 1)

    def test_d0_torsion(self, table):
        factors = factors_for([], [], 60)
        assert pi_manifold(factors, table, 2) == FGAbelianGroup.free(1)
        pi3 = pi_manifold(factors, table, 3)
        assert pi3 == FGAbelianGroup.from_orders(15)

    def test_d0_power_of_two_path(self, table):
        factors = factors_for([], [], 32)
        assert pi_manifold(factors, table, 3) == FGAbelianGroup.from_orders(8)

    def test_d0_higher_degrees_unsupported(self, table):
        factors = factors_for([], [], 60)
        with pytest.raises(UnsupportedDegree):
            pi_manifold(factors, table, 4)

    def test_truncation_guard(self, table):
        factors = factors_for([[1, 0, 0], [0, 1, 0], [0, 0, -1]], [1, 0, 0], 9, cutoff=3)
        with pytest.raises(TableOutOfRange):
            pi_manifold(factors, table, 6)

    def test_truncation_guard_names_the_last_dimension(self, table):
        factors = factors_for([[1, 0, 0], [0, 1, 0], [0, 0, -1]], [1, 0, 0], 9, cutoff=3)
        assert factors.truncated
        with pytest.raises(TableOutOfRange, match="truncated at 4$"):
            pi_manifold(factors, table, 6)

    def test_degree_below_two_rejected(self, table):
        factors = factors_for([[1]], [1], 5)
        with pytest.raises(Exception):
            pi_manifold(factors, table, 1)


class TestPiByMultiplicity:
    @staticmethod
    def one_summand_per_factor(factors, table, k):
        """pi_k(M) with the sphere part as one direct summand per loop factor."""
        parts = [FGAbelianGroup.free(factors.circles if k == 2 else 0)]
        parts += [FGAbelianGroup.from_orders(o) for o in factors.mod_factors if k == 3]
        for dim, mult in factors.sphere_loops:
            parts += [pi_sphere(table, dim, k)] * mult
        return direct_sum(*parts)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_d6_matches_one_summand_per_factor(self, table, seed):
        N, b = random_pair(random.Random(seed), 6)
        factors = loop_factors(N, b, 7)
        for k in range(2, 9):
            expected = self.one_summand_per_factor(factors, table, k)
            assert pi_manifold(factors, table, k) == expected


class TestSharedTable:
    """The shipped table is read once per process and cannot be changed."""

    def test_same_object(self):
        assert load_table() is load_table()

    def test_entries_are_read_only(self):
        table = load_table()
        with pytest.raises(TypeError):
            table.entries[(2, 3)] = FGAbelianGroup.from_orders(5)
        assert pi_sphere(load_table(), 2, 3) == FGAbelianGroup.free(1)

    def test_path_is_read_on_every_call(self, tmp_path):
        custom = tmp_path / "table.txt"
        custom.write_text("2 3 0 5\n")
        first = load_table(custom)
        custom.write_text("2 3 0 7\n")
        assert load_table(custom) is not first
        assert pi_sphere(load_table(custom), 2, 3) == FGAbelianGroup.from_orders(7)
