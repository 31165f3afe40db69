"""Exact evaluation of bondage upper-bound formulas, and the bound registry.

Every integer term here is computed with exact arithmetic: cubic-root floors
by integer bisection, and each radical floor floor((c + sqrt(r)) / a), for
integers a > 0 and r >= 0, as the single expression (c + isqrt(r)) // a.
That identity holds because for an integer q, a*q - c <= sqrt(r) exactly
when a*q - c <= isqrt(r).  Rational thresholds are compared with cleared
denominators.  No float decides a bound, a threshold or a check, and a
report holds no float: floating point appears only in three cross-check
functions that the tests hold the exact values against
(``largest_root_bisect``, ``order_lower_bound`` and ``size_lower_bound``).

:data:`REGISTRY` describes each bound once: its name, formula, hypothesis
and value.  The report here and the checks of the verification harness are
both loops over it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

__all__ = [
    "CubicSpec",
    "improved_bound_cubic",
    "baseline_bound_cubic",
    "floor_largest_root",
    "largest_root_bisect",
    "cubic_term",
    "cubic_term_baseline",
    "bound_cubic",
    "bound_sqrt",
    "bound_sqrt_baseline",
    "bound_girth",
    "bound_girth_baseline",
    "bound_triangle_free",
    "bound_order",
    "bound_size",
    "bound_genus",
    "order_lower_bound",
    "size_lower_bound",
    "order_term",
    "size_term",
    "comparison_table",
    "BoundEntry",
    "BoundReport",
    "build_bound_report",
    "BoundParams",
    "Bound",
    "REGISTRY",
    "REPORTED",
]

def _require_chi_nonpositive(chi: int) -> None:
    if chi > 0:
        raise ValueError(f"formula requires chi <= 0, got {chi}")


@dataclass(frozen=True)
class CubicSpec:
    """Monic integer cubic z^3 + a*z^2 + b*z + c with one nonnegative real root.

    Uniqueness follows from the coefficient signs: the root sum is -a < 0 and
    the root product is -c > 0, so either exactly one real root is positive
    (two negative), or the only real root is positive (complex pair has
    positive norm).  Either way the cubic is negative on [0, root) and
    positive beyond, which is what the integer floor search relies on.
    """

    a: int
    b: int
    c: int

    def __post_init__(self):
        if not (self.a > 0 and self.c < 0):
            raise ValueError(
                "cubic must have root sum < 0 and root product > 0 "
                f"(need a > 0 and c < 0, got a={self.a}, c={self.c})"
            )

    def __call__(self, z):
        return ((z + self.a) * z + self.b) * z + self.c


def improved_bound_cubic(chi: int) -> CubicSpec:
    """z^3 + z^2 + (3*chi - 8)*z + 9*chi - 12, the sharper additive term."""
    _require_chi_nonpositive(chi)
    return CubicSpec(1, 3 * chi - 8, 9 * chi - 12)


def baseline_bound_cubic(chi: int) -> CubicSpec:
    """z^3 + 2*z^2 + (6*chi - 7)*z + 18*chi - 24, the earlier cubic term."""
    _require_chi_nonpositive(chi)
    return CubicSpec(2, 6 * chi - 7, 18 * chi - 24)


def floor_largest_root(cubic: CubicSpec) -> int:
    """Floor of the unique nonnegative real root, by exact integer bisection.

    The cubic is negative at 0, so doubling ``hi`` until the cubic turns
    positive brackets the root with ``cubic(lo) <= 0 < cubic(hi)``, and
    halving keeps that bracket until ``hi = lo + 1``.
    """
    lo, hi = 0, 1
    while cubic(hi) <= 0:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if cubic(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return lo


# Stays in the library because perfbench/run.py:BOUNDS_TRACED names it.
def largest_root_bisect(cubic: CubicSpec, tol: float = 1e-12) -> float:
    """Bisection value of the nonnegative root, bracketed by sign change."""
    lo = 0.0
    hi = 1.0
    while cubic(hi) <= 0:
        hi *= 2
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if mid in (lo, hi):
            break
        if cubic(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return lo


def cubic_term(chi: int) -> int:
    """Additive term floor(t): t the largest root of the improved cubic."""
    return floor_largest_root(improved_bound_cubic(chi))


def cubic_term_baseline(chi: int) -> int:
    """Additive term floor(r): r the largest root of the baseline cubic."""
    return floor_largest_root(baseline_bound_cubic(chi))


def bound_cubic(delta: int, chi: int) -> int:
    return delta + cubic_term(chi)


def bound_sqrt(delta: int, chi: int) -> int:
    """delta + 1 + floor(sqrt(4 - 3*chi)), exact integer square root."""
    _require_chi_nonpositive(chi)
    return delta + 1 + math.isqrt(4 - 3 * chi)


def bound_sqrt_baseline(delta: int, chi: int) -> int:
    """delta + ceil(sqrt(12 - 6*chi) - 1/2), the weaker closed form.

    With v = 12 - 6*chi the term is the least q with (2q+1)^2 >= 4v; as 4v
    is never an odd square, that is (isqrt(4v - 1) + 1) // 2.
    """
    _require_chi_nonpositive(chi)
    return delta + (math.isqrt(4 * (12 - 6 * chi) - 1) + 1) // 2


def bound_girth(delta: int, chi: int, g: int) -> int:
    """delta + floor(s) with s = (2 + sqrt(g^2 - g*(g-2)*chi)) / (g - 2)."""
    _require_chi_nonpositive(chi)
    if not isinstance(g, int) or g < 3:
        raise ValueError(f"girth must be a finite integer >= 3, got {g}")
    return delta + (2 + math.isqrt(g * g - g * (g - 2) * chi)) // (g - 2)


def bound_girth_baseline(delta: int, chi: int, g: int) -> int:
    """delta + floor((sqrt(8g(2-g)chi + (3g-2)^2) - (g-6)) / (2(g-2)))."""
    _require_chi_nonpositive(chi)
    if not isinstance(g, int) or g < 3:
        raise ValueError(f"girth must be a finite integer >= 3, got {g}")
    return delta + (math.isqrt(8 * g * (2 - g) * chi + (3 * g - 2) ** 2) - (g - 6)) // (2 * (g - 2))


def bound_triangle_free(delta: int, chi: int) -> int:
    """delta + 1 + floor(sqrt(4 - 2*chi)); equals the girth bound at g = 4."""
    _require_chi_nonpositive(chi)
    return delta + 1 + math.isqrt(4 - 2 * chi)


def order_term(chi: int, n: int) -> int:
    """floor(c) for c = 1/2 - 3*chi/n + sqrt(25/4 - 21*chi/n + 9*chi^2/n^2).

    Over the denominator 2n, c = (n - 6*chi + sqrt(25n^2 - 84n*chi + 36chi^2)) / (2n).
    """
    _require_chi_nonpositive(chi)
    if n < 1:
        raise ValueError(f"order must be positive, got {n}")
    return (n - 6 * chi + math.isqrt(25 * n * n - 84 * n * chi + 36 * chi * chi)) // (2 * n)


def bound_order(delta: int, chi: int, n: int) -> int:
    return delta + order_term(chi, n)


def size_term(chi: int, m: int) -> int:
    """floor(3 - 18*chi / (m + 3*chi)), one floor over d = m + 3*chi > 0."""
    _require_chi_nonpositive(chi)
    d = m + 3 * chi
    if d <= 0:
        raise ValueError(f"size bound needs m > {-3 * chi}, got m={m}")
    return (3 * d - 18 * chi) // d


def bound_size(delta: int, chi: int, m: int) -> int:
    return delta + size_term(chi, m)


def bound_genus(delta: int, h: int | None = None, k: int | None = None) -> int:
    """min(delta + h + 2, delta + k + 1) over the genus terms supplied."""
    terms = []
    if h is not None:
        if h < 0:
            raise ValueError("orientable genus must be >= 0")
        terms.append(delta + h + 2)
    if k is not None:
        if k < 1:
            raise ValueError("non-orientable genus must be >= 1")
        terms.append(delta + k + 1)
    if not terms:
        raise ValueError("at least one genus must be supplied")
    return min(terms)


# Stays in the library because perfbench/run.py:BOUNDS_TRACED names it.
def order_lower_bound(chi: int) -> float:
    """(3 + sqrt(17 - 8*chi)) / 2, a floor on the order of nontrivial graphs.

    A float cross-check; the ``order_floor`` registry row decides
    ``n >= order_lower_bound(chi)`` exactly.
    """
    return (3 + math.sqrt(17 - 8 * chi)) / 2


# Stays in the library because perfbench/run.py:BOUNDS_TRACED names it.
def size_lower_bound(chi: int) -> float:
    """5/2 - chi + sqrt(17 - 8*chi)/2, a floor on the size.

    A float cross-check; the ``size_floor`` registry row decides
    ``m >= size_lower_bound(chi)`` exactly.
    """
    return 2.5 - chi + math.sqrt(17 - 8 * chi) / 2


# ---------------------------------------------------------------------------
# Comparison table of the two cubic terms
# ---------------------------------------------------------------------------


def comparison_table(chi_lo: int, chi_hi: int) -> list[tuple[int, int, int]]:
    """Rows (chi, baseline term, improved term) for chi_lo..chi_hi ascending."""
    if chi_hi > 0:
        raise ValueError("table is defined for chi <= 0")
    if chi_lo > chi_hi:
        raise ValueError("empty range")
    return [
        (chi, cubic_term_baseline(chi), cubic_term(chi))
        for chi in range(chi_lo, chi_hi + 1)
    ]


# ---------------------------------------------------------------------------
# The bound registry and the aggregated report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundParams:
    """The parameters the registry rows read; None marks an unknown value.

    ``girth`` is ``math.inf`` for a forest.  ``chi`` is a certified maximum
    Euler characteristic and ``h``/``k`` are certified orientable and
    non-orientable genera; a disconnected graph has no 2-cell embedding, so
    all three stay None for it.  The last four fields are filled in by the
    verification harness from the graph itself: connectivity, the
    Hartnell-Rall edge bound, the bondage number ``b`` and its proxy ``b'``.
    """

    delta: int
    chi: int | None
    girth: int | float | None = None
    n: int | None = None
    m: int | None = None
    h: int | None = None
    k: int | None = None
    connected: bool = False
    edge_bound: int | None = None
    b: int | None = None
    b_prime: int | None = None


@dataclass(frozen=True)
class Bound:
    """One registry row: a bound, its hypothesis, and where it is used.

    ``value(p)`` is an upper bound on the :class:`BoundParams` field named
    by ``target`` (``"b"`` or ``"b_prime"``); when ``target`` is None it is
    the exact verdict of a lower bound on the order or size instead, so a
    row yields an int or a bool and never a float.  It is only called where
    :meth:`applicable` holds.  ``reported`` rows are the entries of
    :func:`build_bound_report`, ``checked`` rows the checks of the
    verification harness.
    """

    name: str
    formula: str
    needs_chi: bool
    applies: Callable[[BoundParams], bool]
    value: Callable[[BoundParams], int | bool]
    target: str | None = "b"
    reported: bool = True
    checked: bool = True

    def applicable(self, p: BoundParams) -> bool:
        """The hypothesis: ``chi`` known where the row needs it, then ``applies``."""
        return (not self.needs_chi or p.chi is not None) and self.applies(p)


def _girth_applies(p: BoundParams) -> bool:
    return p.chi <= 0 and p.girth is not None and p.girth != math.inf and p.girth >= 3


def _floor_holds(w: int, chi: int) -> bool:
    """w >= sqrt(17 - 8*chi), decided in integers."""
    return w >= 0 and w * w >= 17 - 8 * chi


def _cubic(p: BoundParams) -> int:
    return bound_cubic(p.delta, p.chi)


# Rows name the bound functions, which are looked up when a row is
# evaluated, so wrapping a module function also wraps every row that uses it.
REGISTRY: tuple[Bound, ...] = (
    Bound("hartnell_rall", "min over edges of d(u)+d(v)-1-|N(u) and N(v)|", False,
          lambda p: p.edge_bound is not None, lambda p: p.edge_bound, reported=False),
    Bound("average_degree", "floor(4m/n) - 1, connected graphs", False,
          lambda p: p.connected, lambda p: (4 * p.m - p.n) // p.n, reported=False),
    Bound("acyclic", "2, graphs with no cycle", False,
          lambda p: p.girth == math.inf, lambda p: 2, reported=False),
    Bound("genus", "min(delta+h+2, delta+k+1) over embeddable genera", False,
          lambda p: p.h is not None or p.k is not None,
          lambda p: bound_genus(p.delta, p.h, p.k)),
    Bound("cubic", "delta + floor(t), t the largest real root of z^3+z^2+(3chi-8)z+9chi-12", True,
          lambda p: p.chi <= 0, _cubic),
    Bound("sqrt", "delta + 1 + floor(sqrt(4-3chi))", True,
          lambda p: p.chi <= 0, lambda p: bound_sqrt(p.delta, p.chi)),
    Bound("cubic_baseline",
          "delta + floor(r), r the largest real root of z^3+2z^2+(6chi-7)z+18chi-24", True,
          lambda p: p.chi <= 0, lambda p: p.delta + cubic_term_baseline(p.chi), checked=False),
    Bound("sqrt_baseline", "delta + ceil(sqrt(12-6chi) - 1/2)", True,
          lambda p: p.chi <= 0, lambda p: bound_sqrt_baseline(p.delta, p.chi), checked=False),
    Bound("girth", "delta + floor((2+sqrt(g^2-g(g-2)chi))/(g-2)), g the girth", True,
          _girth_applies, lambda p: bound_girth(p.delta, p.chi, int(p.girth))),
    Bound("girth_baseline", "delta + floor((sqrt(8g(2-g)chi+(3g-2)^2)-(g-6))/(2(g-2)))", True,
          _girth_applies, lambda p: bound_girth_baseline(p.delta, p.chi, int(p.girth)),
          checked=False),
    Bound("triangle_free", "delta + 1 + floor(sqrt(4-2chi)), girth >= 4", True,
          lambda p: p.chi <= 0 and p.girth is not None and p.girth >= 4,
          lambda p: bound_triangle_free(p.delta, p.chi)),
    Bound("order", "delta + floor(1/2 - 3chi/n + sqrt(25/4 - 21chi/n + 9chi^2/n^2))", True,
          lambda p: p.chi <= 0 and p.n is not None, lambda p: bound_order(p.delta, p.chi, p.n)),
    Bound("size", "delta + floor(3 - 18chi/(m+3chi)), m > -3chi", True,
          lambda p: p.chi <= 0 and p.m is not None and p.m + 3 * p.chi > 0,
          lambda p: bound_size(p.delta, p.chi, p.m)),
    Bound("cubic_bprime", "delta + floor(t) bounding b', t the largest root as in cubic", True,
          lambda p: p.chi <= 0, _cubic, target="b_prime", reported=False),
    Bound("order_floor", "n >= (3+sqrt(17-8chi))/2, n >= 2", True,
          lambda p: p.n is not None and p.n >= 2,
          lambda p: _floor_holds(2 * p.n - 3, p.chi), target=None, reported=False),
    Bound("size_floor", "m >= 5/2 - chi + sqrt(17-8chi)/2, n >= 2", True,
          lambda p: p.n is not None and p.n >= 2 and p.m is not None,
          lambda p: _floor_holds(2 * p.m - 5 + 2 * p.chi, p.chi), target=None, reported=False),
)

# The report lists the bounds in chi first, then those that stand without it.
REPORTED: tuple[Bound, ...] = tuple(
    sorted((row for row in REGISTRY if row.reported), key=lambda row: not row.needs_chi)
)


@dataclass(frozen=True)
class BoundEntry:
    name: str
    additive_term: int | None
    bound_value: int | None
    applicable: bool
    provenance: str


@dataclass(frozen=True)
class BoundReport:
    delta: int
    chi: int
    entries: tuple[BoundEntry, ...]

    def entry(self, name: str) -> BoundEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)


def build_bound_report(
    delta: int,
    chi: int,
    girth: int | float | None = None,
    n: int | None = None,
    m: int | None = None,
    h: int | None = None,
    k: int | None = None,
) -> BoundReport:
    """Evaluate every reported registry row for one parameter set.

    ``girth`` may be ``math.inf`` for forests; girth-based entries then stay
    inapplicable.  Genus parameters are optional because they come from a
    separate search.  Raises ValueError for a parameter no graph has: a
    negative ``delta`` or ``m``, a ``chi`` above 2, a finite ``girth`` below
    3, ``n`` below 1, or a ``delta`` above ``n - 1``, whether or not a row
    would read it.
    """
    if delta < 0:
        raise ValueError(f"maximum degree must be >= 0, got {delta}")
    if chi > 2:
        raise ValueError(f"Euler characteristic must be <= 2, got {chi}")
    if girth is not None and girth < 3:
        raise ValueError(f"girth must be >= 3 or infinite, got {girth}")
    if n is not None and n < 1:
        raise ValueError(f"order must be positive, got {n}")
    if m is not None and m < 0:
        raise ValueError(f"size must be >= 0, got {m}")
    if n is not None and delta > n - 1:
        raise ValueError(f"maximum degree {delta} exceeds n - 1 = {n - 1}")
    p = BoundParams(delta, chi, girth, n, m, h, k)
    entries: list[BoundEntry] = []
    for row in REPORTED:
        if not row.applicable(p):
            entries.append(BoundEntry(row.name, None, None, False, row.formula))
            continue
        value = row.value(p)
        entries.append(BoundEntry(row.name, value - delta, value, True, row.formula))
    return BoundReport(delta=delta, chi=chi, entries=tuple(entries))
