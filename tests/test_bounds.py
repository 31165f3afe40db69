import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bondlab import bounds as bnd

from conftest import (
    ORDER_RATIO_BOUNDS,
    SIZE_RATIO_BOUNDS,
    closed_form_root,
    order_threshold_exceeded,
    reference_bound_girth,
    reference_bound_girth_baseline,
    reference_ceil_sqrt_minus_half,
    reference_floor_largest_root,
    reference_order_term,
    sign_family_chi,
    sign_family_order,
    sign_family_size,
    size_threshold,
)

# The 22 cubic-term pairs for chi = 0, -1, ..., -21 (baseline, improved).
TERM_PAIRS = [
    (3, 3), (3, 3), (4, 4), (5, 4), (5, 4), (6, 5), (6, 5), (7, 5),
    (7, 6), (8, 6), (8, 6), (8, 7), (9, 7), (9, 7), (9, 7), (10, 7),
    (10, 8), (10, 8), (11, 8), (11, 8), (11, 8), (11, 9),
]


def _by_name(report):
    """A report's entries by name."""
    return {e.name: e for e in report.entries}


class CountingCubic:
    """A cubic that counts its evaluations; ``.b`` gives the floor's q."""

    def __init__(self, cubic):
        self.cubic = cubic
        self.b = cubic.b
        self.calls = 0

    def __call__(self, z):
        self.calls += 1
        return self.cubic(z)


class TestCubicTerms:
    def test_frozen_term_pairs(self):
        for i, (baseline, improved) in enumerate(TERM_PAIRS):
            chi = -i
            assert bnd.cubic_term_baseline(chi) == baseline, chi
            assert bnd.cubic_term(chi) == improved, chi

    def test_root_is_three_at_zero(self):
        # z^3+z^2-8z-12 factors as (z-3)(z+2)^2.
        cubic = bnd.improved_bound_cubic(0)
        assert cubic(3) == 0
        assert bnd.floor_largest_root(cubic) == 3

    def test_rejects_positive_chi(self):
        with pytest.raises(ValueError):
            bnd.improved_bound_cubic(1)
        with pytest.raises(ValueError):
            bnd.bound_cubic(4, 2)

    def test_exact_floor_matches_bisection_floor(self):
        for chi in range(-200, 1):
            for make in (bnd.improved_bound_cubic, bnd.baseline_bound_cubic):
                cubic = make(chi)
                assert bnd.floor_largest_root(cubic) == math.floor(
                    bnd.largest_root_bisect(cubic)
                ), (chi, make.__name__)

    def test_seeded_floor_matches_the_scan_in_two_evaluations(self):
        for chi in range(-5000, 1):
            for make in (bnd.improved_bound_cubic, bnd.baseline_bound_cubic):
                cubic = make(chi)
                counted = CountingCubic(cubic)
                assert bnd.floor_largest_root(counted) == reference_floor_largest_root(cubic), (
                    chi, make.__name__)
                assert counted.calls == 2, (chi, make.__name__, counted.calls)

    @pytest.mark.parametrize("cubic, floor", [
        # isqrt(-b) = 1 lies above the root.
        (bnd.CubicSpec(1000, -1, -1), 0),
        # b >= 0 gives q = 0, far below the root.
        (bnd.CubicSpec(1, 5, -10**9), 999),
    ])
    def test_seeded_floor_from_a_start_off_the_root(self, cubic, floor):
        # Only floors of q or q + 1, q = isqrt(-b), are certified; a cubic
        # whose floor lies elsewhere is refused, never answered.
        assert reference_floor_largest_root(cubic) == floor
        with pytest.raises(ValueError, match="is neither"):
            bnd.floor_largest_root(cubic)

    @pytest.mark.parametrize("chi", [-10**30, -10**200])
    def test_floor_brackets_the_root_far_beyond_the_scan(self, chi):
        for make in (bnd.improved_bound_cubic, bnd.baseline_bound_cubic):
            cubic = make(chi)
            counted = CountingCubic(cubic)
            z = bnd.floor_largest_root(counted)
            assert cubic(z) <= 0 < cubic(z + 1)
            assert counted.calls == 2, (make.__name__, counted.calls)

    @pytest.mark.parametrize("a, b, c", [(0, -1, -1), (1, -1, 0)])
    def test_cubic_spec_refuses_coefficient_signs(self, a, b, c):
        # The signs are what make the certified root the largest one.
        with pytest.raises(ValueError, match="need a > 0 and c < 0"):
            bnd.CubicSpec(a, b, c)

    def test_closed_form_agrees_with_bisection(self):
        for chi in range(-200, 1):
            assert closed_form_root(chi) == pytest.approx(
                bnd.largest_root_bisect(bnd.improved_bound_cubic(chi)), abs=1e-6
            )

    def test_root_decreasing_in_chi_and_at_least_three(self):
        previous = None
        for chi in range(0, -201, -1):
            root = bnd.largest_root_bisect(bnd.improved_bound_cubic(chi))
            assert root >= 3 - 1e-12
            if previous is not None:
                # Strictly larger as chi decreases, with a separation guard.
                assert root > previous + 1e-9
            previous = root

    def test_improved_floor_never_exceeds_baseline(self):
        for chi in range(-200, 1):
            assert bnd.cubic_term(chi) <= bnd.cubic_term_baseline(chi)
        for chi in range(-21, -2):
            assert bnd.cubic_term(chi) < bnd.cubic_term_baseline(chi)

    def test_asymptotics_at_minus_one_million(self):
        chi = -(10**6)
        root = bnd.largest_root_bisect(bnd.improved_bound_cubic(chi), 1e-6)
        assert 0.99 <= root / (1 + math.sqrt(4 - 3 * chi)) <= 1.01
        ratio = (0.5 + math.sqrt(12 - 6 * chi)) / (1 + math.sqrt(4 - 3 * chi))
        assert math.sqrt(2) - 0.01 <= ratio <= math.sqrt(2) + 0.01
        assert bnd.cubic_term(chi) == math.floor(
            bnd.largest_root_bisect(bnd.improved_bound_cubic(chi))
        )


class TestClosedFormBounds:
    def test_bound_cubic_examples(self):
        assert bnd.bound_cubic(4, 0) == 7
        assert bnd.bound_cubic(6, -8) == 12
        assert bnd.bound_cubic(5, -21) == 14

    def test_bound_sqrt_examples(self):
        assert bnd.bound_sqrt(4, -4) == 9
        assert bnd.bound_sqrt(4, 0) == 7 == bnd.bound_cubic(4, 0)

    def test_sqrt_dominates_cubic(self):
        for chi in range(-200, 1):
            assert bnd.bound_sqrt(0, chi) >= bnd.bound_cubic(0, chi)

    def test_sqrt_baseline_examples(self):
        assert bnd.bound_sqrt_baseline(0, 0) == 3
        assert bnd.bound_sqrt_baseline(0, -2) == 5

    def test_girth_examples(self):
        assert bnd.bound_girth(0, 0, 7) == 1
        assert bnd.bound_girth(0, 0, 5) == 2
        assert bnd.bound_girth(0, -1, 5) == 2
        assert bnd.bound_girth(0, -2, 6) == 2
        assert bnd.bound_girth(0, -2, 4) == 3

    def test_girth_baseline_examples(self):
        assert bnd.bound_girth_baseline(0, 0, 4) == 3
        # chi=-2, g=4: radicand 8*4*(-2)*(-2) + 100 = 228, value about 4.27.
        assert bnd.bound_girth_baseline(0, -2, 4) == 4

    def test_girth_baseline_never_below_girth_bound(self):
        for chi in range(-50, 1):
            for g in range(3, 13):
                assert bnd.bound_girth_baseline(0, chi, g) >= bnd.bound_girth(0, chi, g)

    def test_girth_bound_nonincreasing_in_girth(self):
        for chi in range(-50, 1):
            values = [bnd.bound_girth(0, chi, g) for g in range(3, 21)]
            assert values == sorted(values, reverse=True)

    def test_girth_requires_finite_girth(self):
        with pytest.raises(ValueError):
            bnd.bound_girth(0, 0, 2)

    def test_triangle_free_examples(self):
        assert bnd.bound_triangle_free(4, 0) == 7
        assert bnd.bound_triangle_free(3, -6) == 8

    def test_triangle_free_equals_girth_bound_at_four(self):
        for chi in range(-100, 1):
            assert bnd.bound_triangle_free(0, chi) == bnd.bound_girth(0, chi, 4)

    def test_order_examples(self):
        for n in (1, 5, 50):
            assert bnd.order_term(0, n) == 3
        assert bnd.order_term(-7, 7) == 9
        assert bnd.order_term(-7, 56) == 3

    def test_order_ratio_constants_at_boundary_and_inside(self):
        chi = -60
        for ratio, constant in ORDER_RATIO_BOUNDS:
            boundary = int(ratio * -chi)
            assert bnd.order_term(chi, boundary) == constant
            assert bnd.order_term(chi, boundary + 1) <= constant

    def test_size_examples(self):
        assert bnd.size_term(-1, 22) == 3
        assert bnd.size_term(-2, 13) == 8
        assert bnd.size_term(0, 9) == 3

    def test_size_ratio_constants_at_boundary_and_inside(self):
        chi = -60
        for ratio, constant in SIZE_RATIO_BOUNDS:
            first_valid = int(ratio * -chi) + 1
            assert bnd.size_term(chi, first_valid) == constant
            assert bnd.size_term(chi, first_valid + 1) <= constant

    def test_size_requires_enough_edges(self):
        with pytest.raises(ValueError):
            bnd.size_term(-2, 6)

    def test_genus_examples(self):
        assert bnd.bound_genus(4, h=0) == 6
        assert bnd.bound_genus(4, k=1) == 6
        assert bnd.bound_genus(0, h=2, k=3) == 4

    def test_lower_bounds(self):
        assert bnd.order_lower_bound(2) == 2
        assert bnd.order_lower_bound(-1) == 4
        assert bnd.order_lower_bound(0) == pytest.approx((3 + math.sqrt(17)) / 2)
        assert bnd.size_lower_bound(2) == 1
        assert bnd.size_lower_bound(-1) == 6
        assert bnd.size_lower_bound(0) == pytest.approx(2.5 + math.sqrt(17) / 2)


class TestIsqrtForms:
    """Each radical floor as one isqrt expression, against the scan oracles."""

    CHIS = range(-3000, 1)
    GIRTHS = [*range(3, 41), 64, 101, 1000]
    ORDERS = [*range(1, 61), 97, 500, 4000, 10**6]

    def test_girth_terms_match_scan(self):
        for chi in self.CHIS:
            for g in self.GIRTHS:
                assert bnd.bound_girth(0, chi, g) == reference_bound_girth(0, chi, g), (chi, g)
                assert bnd.bound_girth_baseline(0, chi, g) == reference_bound_girth_baseline(
                    0, chi, g
                ), (chi, g)

    def test_order_term_matches_scan(self):
        for chi in self.CHIS:
            for n in self.ORDERS:
                assert bnd.order_term(chi, n) == reference_order_term(chi, n), (chi, n)

    def test_size_term_matches_fraction_threshold(self):
        for chi in self.CHIS:
            for m in (-3 * chi + 1, -3 * chi + 2, -5 * chi + 1, -7 * chi + 3, -30 * chi + 7,
                      -3 * chi + 10**6):
                c = size_threshold(chi, m)
                assert bnd.size_term(chi, m) == c.numerator // c.denominator, (chi, m)
            with pytest.raises(ValueError):
                bnd.size_term(chi, -3 * chi)
        with pytest.raises(ValueError):
            bnd.size_term(1, 10)

    def test_sqrt_baseline_matches_scan(self):
        for chi in self.CHIS:
            expected = reference_ceil_sqrt_minus_half(12 - 6 * chi)
            assert bnd.bound_sqrt_baseline(0, chi) == expected, chi

    @given(
        chi=st.integers(-(10**6), 0),
        g=st.integers(3, 10**4),
        n=st.integers(1, 10**6),
        delta=st.integers(0, 100),
    )
    def test_forms_match_scan_on_random_parameters(self, chi, g, n, delta):
        assert bnd.bound_girth(delta, chi, g) == reference_bound_girth(delta, chi, g)
        assert bnd.bound_girth_baseline(delta, chi, g) == reference_bound_girth_baseline(
            delta, chi, g
        )
        assert bnd.order_term(chi, n) == reference_order_term(chi, n)
        assert bnd.bound_sqrt_baseline(delta, chi) == delta + reference_ceil_sqrt_minus_half(
            12 - 6 * chi
        )

    @staticmethod
    def _is_floor(z, w_of, rad):
        """z satisfies w <= 0 or w^2 <= rad, and z + 1 does not."""
        w, w_next = w_of(z), w_of(z + 1)
        return (w <= 0 or w * w <= rad) and not (w_next <= 0 or w_next * w_next <= rad)

    def test_huge_inputs_stay_exact(self):
        # The radicands are far beyond the float range; no float is involved.
        assert bnd.bound_girth(3, -1, 10**200) == 4
        chi, n = -(10**400), 5
        rad = 25 * n * n - 84 * n * chi + 36 * chi * chi
        z = bnd.order_term(chi, n)
        assert self._is_floor(z, lambda q: 2 * n * q - n + 6 * chi, rad)
        chi, g = -(10**350), 7
        rad = 8 * g * (2 - g) * chi + (3 * g - 2) ** 2
        z = bnd.bound_girth_baseline(0, chi, g)
        assert self._is_floor(z, lambda q: 2 * (g - 2) * q + (g - 6), rad)


class TestRegistry:
    def _row(self, name):
        (row,) = [r for r in bnd.REGISTRY if r.name == name]
        return row

    def test_names_unique(self):
        names = [r.name for r in bnd.REGISTRY]
        assert len(names) == len(set(names))

    def test_exact_floors_agree_with_float_floors(self):
        order_floor = self._row("order_floor")
        size_floor = self._row("size_floor")
        for chi in range(-300, 3):
            order_min = bnd.order_lower_bound(chi)
            size_min = bnd.size_lower_bound(chi)
            for v in range(1, 401):
                p = bnd.BoundParams(0, chi, n=v, m=v)
                assert order_floor.value(p) == (v >= order_min), (chi, v)
                assert size_floor.value(p) == (v >= size_min), (chi, v)

    def test_floor_rows_at_their_boundary(self):
        # At n = 5 and chi = -4, w = 2n - 3 = 7 and w^2 = 49 = 17 + 32.
        order_floor = self._row("order_floor")
        assert order_floor.value(bnd.BoundParams(0, -4, n=5))
        assert not order_floor.value(bnd.BoundParams(0, -5, n=5))
        # At m = 10 and chi = -4, w = 2m - 5 + 2chi = 7 meets the same 49.
        size_floor = self._row("size_floor")
        assert size_floor.value(bnd.BoundParams(0, -4, n=5, m=10))
        assert not size_floor.value(bnd.BoundParams(0, -5, n=5, m=10))
        assert not size_floor.value(bnd.BoundParams(0, -4, n=5, m=9))

    def test_rows_call_module_functions_at_call_time(self, monkeypatch):
        calls = []
        original = bnd.bound_cubic

        def counted(delta, chi):
            calls.append((delta, chi))
            return original(delta, chi)

        monkeypatch.setattr(bnd, "bound_cubic", counted)
        assert _by_name(bnd.build_bound_report(4, -4))["cubic"].bound_value == 8
        assert calls == [(4, -4)]


class TestSignFamilies:
    def test_chi_family_examples(self):
        assert sign_family_chi(0, 3.5) == (True, True, True)
        a, b, c = sign_family_chi(0, 3)
        assert not c  # z = 3 is exactly the root

    def test_chi_family_equivalence_on_grid(self):
        for chi in (-5, -1, 0):
            threshold = bnd.largest_root_bisect(bnd.improved_bound_cubic(chi))
            for i in range(0, 2000):
                z = Fraction(i, 100)
                if abs(float(z) - threshold) < 1e-9:
                    continue
                assert all(sign_family_chi(chi, z)) == (float(z) > threshold), (chi, z)

    def test_order_family_equivalence_exact(self):
        for n in (1, 4, 9):
            for chi in (0, -3, -11):
                for i in range(0, 400):
                    z = Fraction(i, 10)
                    expected = order_threshold_exceeded(n, chi, z)
                    assert all(sign_family_order(n, chi, z)) == expected, (n, chi, z)

    def test_size_family_equivalence_exact(self):
        for chi in (0, -2, -7):
            for m in (max(1, -3 * chi + 1), -3 * chi + 5, -3 * chi + 40):
                threshold = (
                    Fraction(3) + Fraction(-18 * chi, m + 3 * chi)
                )
                for i in range(0, 400):
                    z = Fraction(i, 10)
                    if z == threshold:
                        continue
                    assert all(sign_family_size(m, chi, z)) == (z > threshold), (chi, m, z)


class TestComparisonTable:
    def test_rows_ascending_and_frozen(self):
        rows = bnd.comparison_table(-21, 0)
        assert [chi for chi, _, _ in rows] == list(range(-21, 1))
        for chi, baseline, improved in rows:
            assert (baseline, improved) == TERM_PAIRS[-chi]

    def test_rejects_positive_range(self):
        with pytest.raises(ValueError):
            bnd.comparison_table(-3, 1)


class TestBoundReport:
    def test_report_for_plain_parameters(self):
        report = _by_name(bnd.build_bound_report(4, -4, girth=5, n=20, m=30, h=1, k=2))
        assert report["cubic"].bound_value == 8
        assert report["sqrt"].bound_value == 9
        assert report["girth"].applicable
        assert report["triangle_free"].applicable
        assert report["order"].applicable
        assert report["size"].applicable
        assert report["genus"].bound_value == min(4 + 1 + 2, 4 + 2 + 1)

    def test_report_skips_inapplicable(self):
        report = _by_name(bnd.build_bound_report(3, 2))
        assert not report["cubic"].applicable
        assert not report["size"].applicable

    def test_unmet_entries_are_shared(self):
        first = bnd.build_bound_report(3, 2)
        second = bnd.build_bound_report(5, -4, girth=math.inf, n=9, m=8)
        unmet = [e for e in second.entries if not e.applicable]
        assert [e.name for e in unmet] == ["girth", "girth_baseline", "size", "genus"]
        for entry in unmet:
            assert entry is _by_name(first)[entry.name]
            row = next(row for row in bnd.REPORTED if row.name == entry.name)
            assert entry == bnd.BoundEntry(row.name, None, None, False, row.formula)
        # An applicable entry is built for its report.
        assert _by_name(second)["cubic"] is not _by_name(bnd.build_bound_report(5, -4))["cubic"]

    def test_triangle_entry_needs_girth_at_least_four(self):
        report = _by_name(bnd.build_bound_report(3, -1, girth=3))
        assert not report["triangle_free"].applicable
        report = _by_name(bnd.build_bound_report(3, -1, girth=4))
        assert report["triangle_free"].applicable
