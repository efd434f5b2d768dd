"""Exact DOF-region computation for the two-user interference channel.

Everything here is integer arithmetic: regions are intersections of integer
halfspaces, vertices are integer points, and the sum-DOF linear program is
solved by evaluating the objective at every vertex.  The zero-forcing
achievability rule is written once, as each column's top in closed form
(``_column_tops``, a list of ints with ``tops[d1]`` the top of column d1);
``_achievable`` reads the tops, and ``zf`` reads the streams each message
can null from ``_nullable``.  The inner region is the convex hull of the
achievable integer points, a staircase closed under lowering either count,
so the hull is read off (0, 0), the far end of the d1 axis and the top of
each column.  Every converse bound limits d1, d2 or d1 + d2, so the outer
region is fixed by three caps A, B and C, written once in ``_outer_caps``,
and its at most five corners follow from them.  The two regions coincide
exactly when every outer corner is achievable and every column top lies
within the caps, and a closed-form minimum gives the same sum DOF; the
verification sweeps check both exhaustively.  They read only the caps, the
column tops and the ``dof_formula`` values, as lists in
``CognitionScenario.all_scenarios()`` order, test the raw corners of
``_corner_points`` as plain pairs, and read the ordering chain's caps and
formula values by position (``_ORDERING_POSITIONS``); they build no
``DofPoint`` or ``Region2D``.  The clipped-sum identity (``lemma5_holds``)
is checked by brute force over a whole box, as two exact integer/boolean
arrays compared element by element.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .channel import AntennaConfig, CognitionScenario


class Halfspace(NamedTuple):
    """The halfplane a1*d1 + a2*d2 <= b with integer coefficients."""

    a1: int
    a2: int
    b: int

    def holds(self, point: "DofPoint") -> bool:
        return self.a1 * point.d1 + self.a2 * point.d2 <= self.b

    def normalized(self) -> "Halfspace":
        g = gcd(self.a1, self.a2, self.b)
        if g > 1:
            return Halfspace(self.a1 // g, self.a2 // g, self.b // g)
        return self


class DofPoint(NamedTuple):
    """A degrees-of-freedom pair of integers."""

    d1: int
    d2: int


NONNEGATIVITY = (Halfspace(-1, 0, 0), Halfspace(0, -1, 0))
_NO_COGNITION = CognitionScenario()


def _pos(x: int) -> int:
    return x if x > 0 else 0


def _cross(o: tuple[int, int], a: tuple[int, int], b: tuple[int, int]) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _convex_hull(points: Iterable[tuple[int, int]]) -> list[DofPoint]:
    """Monotone-chain hull, counterclockwise from the lexicographically
    smallest point, collinear interiors dropped; a degenerate hull is its
    sorted point or segment endpoints."""
    pts = sorted({(x, y) for x, y in points})
    if len(pts) <= 2:
        return [DofPoint(x, y) for x, y in pts]
    hull: list[tuple[int, int]] = []
    for chain_points in (pts, pts[::-1]):  # the lower chain, then the upper
        chain: list[tuple[int, int]] = []
        for p in chain_points:
            while len(chain) >= 2 and _cross(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        hull += chain[:-1]
    return [DofPoint(x, y) for x, y in (hull if len(hull) >= 3 else sorted(set(hull)))]


@dataclass(frozen=True)
class Region2D:
    """A bounded convex 2-D region: integer halfspaces plus integer vertices.

    Vertices are counterclockwise, deduplicated, and start at the
    lexicographically smallest one; degenerate regions keep only segment
    endpoints.  The nonnegativity halfspaces are always part of the list.
    """

    halfspaces: tuple[Halfspace, ...]
    vertices: tuple[DofPoint, ...]

    @classmethod
    def from_integer_points(cls, points: Iterable[tuple[int, int]]) -> "Region2D":
        pts = list(points)
        if not pts:
            raise ValueError("region is empty")
        hull = _convex_hull(pts)
        halfspaces = list(NONNEGATIVITY)
        if len(hull) == 1:
            (p,) = hull
            halfspaces += [
                Halfspace(1, 0, p.d1),
                Halfspace(0, 1, p.d2),
                Halfspace(-1, 0, -p.d1),
                Halfspace(0, -1, -p.d2),
            ]
        elif len(hull) == 2:
            p, q = hull
            ex, ey = q.d1 - p.d1, q.d2 - p.d2
            # The carrier line from both sides, then caps at the endpoints.
            halfspaces += [
                Halfspace(ey, -ex, ey * p.d1 - ex * p.d2),
                Halfspace(-ey, ex, -ey * p.d1 + ex * p.d2),
                Halfspace(ex, ey, ex * q.d1 + ey * q.d2),
                Halfspace(-ex, -ey, -ex * p.d1 - ey * p.d2),
            ]
        else:
            n = len(hull)
            for i in range(n):
                p, q = hull[i], hull[(i + 1) % n]
                ex, ey = q.d1 - p.d1, q.d2 - p.d2
                halfspaces.append(Halfspace(ey, -ex, ey * p.d1 - ex * p.d2))
        normalized = tuple(dict.fromkeys(h.normalized() for h in halfspaces))
        return cls(halfspaces=normalized, vertices=tuple(hull))

    def to_json_dict(
        self,
        config: AntennaConfig | None = None,
        scenario: CognitionScenario | None = None,
    ) -> dict:
        data: dict = {}
        if config is not None:
            data["config"] = config.to_json_dict()
        if scenario is not None:
            data["scenario"] = list(scenario.bits)
        data["halfspaces"] = [{"a1": h.a1, "a2": h.a2, "b": h.b} for h in self.halfspaces]
        data["vertices"] = [[_frac_str(v.d1), _frac_str(v.d2)] for v in self.vertices]
        data["sum_dof"] = _frac_str(sum_dof_lp(self))
        return data


def _frac_str(value: int) -> str:
    return f"{value}/1"


@dataclass(frozen=True)
class AchievableSet:
    """The achievable integer DOF pairs for one configuration and scenario."""

    points: frozenset[tuple[int, int]]
    config: AntennaConfig
    scenario: CognitionScenario


def _nullable(config: AntennaConfig, scenario: CognitionScenario) -> tuple[int, int]:
    """How many streams of W1 fit in the kernel of its cross link to receiver
    2, and of W2 in that to receiver 1: the link's input dimension (the
    message's own transmitter, plus the other one when it is cognitive) less
    the receiver's antennas.  These are the streams a message can null at
    the other receiver; ``zf._nulled`` nulls up to this many."""
    m1, m2, n1, n2 = config.counts
    return _pos(m1 + scenario.t2 * m2 - n2), _pos(scenario.t1 * m1 + m2 - n1)


def _column_tops(config: AntennaConfig, scenario: CognitionScenario) -> list[int]:
    """The largest achievable d2 in each column, ``tops[d1]`` for the
    achievable d1 = 0, 1, ..., len(tops) - 1, as plain ints.

    This is the zero-forcing achievability rule, written once.  Transmit
    side: d1 <= m1 + t2*m2 and d2 <= m2 + t1*(m1 - d1), and with a cognitive
    transmitter 2 also d1 + d2 <= m1 + m2.  Receive side: d1 <= n1, and a
    receiver that is not cognitive keeps the other message's streams that
    are not nulled at it apart from its own, so d2 <= k2 + n1 - d1 where
    receiver 1 is not cognitive and d2 <= n2 - (d1 - k1)^+, that is d2 <= n2
    and d2 <= n2 + k1 - d1, where receiver 2 is not, with (k1, k2) from
    ``_nullable``.  Every scenario has d1 + d2 <= m1 + m2 (without t2,
    d1 <= m1 and d2 <= m2 + t1*(m1 - d1)), so the caps of slope -1 are one
    cap d2 <= s - d1, with s the least of m1 + m2 and the receive sums in
    force (with t1, m2 + t1*(m1 - d1) is m1 + m2 - d1).  The flat caps are
    n2 and, without t1, m2.  Each top is the lesser of the flat cap and
    s - d1, both at least 0 up to d1 = s, so the achievable set is closed
    under lowering either count and the columns end at the least of n1,
    m1 + t2*m2 and s.  The list is written as two runs: the flat cap while
    s - d1 >= flat, then s - d1, falling by one per column, to the last.
    """
    m1, m2, n1, n2 = config.counts
    k1, k2 = _nullable(config, scenario)
    s = m1 + m2
    if not scenario.r1:
        s = min(s, k2 + n1)
    if not scenario.r2:
        s = min(s, n2 + k1)
    flat = n2 if scenario.t1 else min(m2, n2)
    last = min(n1, m1 + scenario.t2 * m2, s)
    level = min(max(s - flat + 1, 0), last + 1)  # split at d1 = s - flat + 1: first s - d1 < flat
    tops = [flat] * level
    tops += range(s - level, s - last - 1, -1)
    return tops


def _achievable(config: AntennaConfig, scenario: CognitionScenario, d1: int, d2: int) -> bool:
    """Whether the integer pair (d1, d2) is achievable by zero forcing: d2
    lies between 0 and the top of column d1 of ``_column_tops``."""
    tops = _column_tops(config, scenario)
    return 0 <= d1 < len(tops) and 0 <= d2 <= tops[d1]


def inner_points(config: AntennaConfig, scenario: CognitionScenario) -> AchievableSet:
    """Enumerate the achievable integer DOF pairs: each column up to its top."""
    tops = _column_tops(config, scenario)
    points = frozenset((d1, d2) for d1, top in enumerate(tops) for d2 in range(top + 1))
    return AchievableSet(points=points, config=config, scenario=scenario)


def _staircase(tops: list[int]) -> list[tuple[int, int]]:
    """(0, 0), the far end of the d1 axis and the column tops."""
    return [(0, 0), (len(tops) - 1, 0), *enumerate(tops)]


def inner_region(config: AntennaConfig, scenario: CognitionScenario) -> Region2D:
    """Convex hull of the achievable integer points, read off the staircase:
    every point lies between its column's top and the d1 axis, so the hull of
    (0, 0), the axis's far end and the column tops is the hull of them all."""
    return Region2D.from_integer_points(_staircase(_column_tops(config, scenario)))


def _outer_caps(config: AntennaConfig, scenario: CognitionScenario) -> tuple[int, int, int]:
    """The converse caps d1 <= A, d2 <= B and d1 + d2 <= C, with A, B <= C.

    The two bounds tied to a transmitter are dropped exactly when it is
    cognitive, as in dof_formula; a cognitive receiver on the same side
    relaxes max(...) to a sum of the two counts.
    """
    m1, m2, n1, n2 = config.counts
    a, b, c = n1, n2, min(m1 + m2, n1 + n2)
    if not scenario.t2:
        a = min(a, m1)
        c = min(c, (m1 + n2) if scenario.r2 else max(m1, n2))
    if not scenario.t1:
        b = min(b, m2)
        c = min(c, (m2 + n1) if scenario.r1 else max(m2, n1))
    return min(a, c), min(b, c), c


def _corner_points(a: int, b: int, c: int) -> tuple[tuple[int, int], ...]:
    """The five candidate corners of {d >= 0, d1 <= a, d2 <= b, d1 + d2 <= c}
    for a, b <= c, counterclockwise from (0, 0), as plain pairs; coincident
    ones are not merged."""
    return (0, 0), (a, 0), (a, min(b, c - a)), (min(a, c - b), b), (0, b)


def _corners(a: int, b: int, c: int) -> tuple[DofPoint, ...]:
    """The corners of ``_corner_points`` with coincident ones merged, as
    ``_convex_hull`` of them would give; no hull is taken."""
    return tuple(dict.fromkeys(DofPoint(*p) for p in _corner_points(a, b, c)))


def outer_region(config: AntennaConfig, scenario: CognitionScenario) -> Region2D:
    """Converse region {d >= 0, d1 <= A, d2 <= B, d1 + d2 <= C} for the caps
    of ``_outer_caps``: the nonnegativity halfspaces, the three caps and
    their corners."""
    a, b, c = _outer_caps(config, scenario)
    halfspaces = (*NONNEGATIVITY, Halfspace(1, 0, a), Halfspace(0, 1, b), Halfspace(1, 1, c))
    return Region2D(halfspaces=halfspaces, vertices=_corners(a, b, c))


def regions_equal(a: Region2D, b: Region2D) -> bool:
    """Exact equality of canonicalized regions, as vertex sets."""
    return set(a.vertices) == set(b.vertices)


def sum_dof_lp(region: Region2D) -> int:
    """Maximize d1 + d2 over the region by checking every vertex."""
    if not region.vertices:
        raise ValueError("region has no vertices; empty regions have no maximum")
    return max(v.d1 + v.d2 for v in region.vertices)


def dof_formula(config: AntennaConfig, scenario: CognitionScenario) -> int:
    """Closed-form total DOF under cognitive message sharing.

    Minimum of the transmit-side and receive-side antenna sums plus, for each
    non-cognitive transmitter, the matching sum bound (relaxed when the same
    side's receiver is cognitive).  Bounds attached to a cognitive
    transmitter do not apply at all.
    """
    m1, m2, n1, n2 = config.counts
    terms = [m1 + m2, n1 + n2]
    if not scenario.t2:
        terms.append((m1 + n2) if scenario.r2 else max(m1, n2))
    if not scenario.t1:
        terms.append((m2 + n1) if scenario.r1 else max(m2, n1))
    return min(terms)


def dof_cooperation(config: AntennaConfig) -> int:
    """Total DOF with full-duplex cooperation among all four nodes.

    Cooperation does not help: the value equals the no-cognition DOF.
    """
    return dof_formula(config, _NO_COGNITION)


def dof_cooperation_upper_bounds(config: AntennaConfig) -> tuple[int, int]:
    """The two genie upper bounds (max(m1, n2), max(m2, n1))."""
    return (max(config.m1, config.n2), max(config.m2, config.n1))


def lemma5_holds(c: int, d: int, box: int) -> bool:
    """Check the clipped-sum identity on the integer box [0, box]^2.

    The set {a + (b - (c - d)^+)^+ <= d} must coincide with
    {a <= d and a + b <= max(c, d)}.  Requires box >= c + d so the box covers
    everywhere the two sets could differ.  The clipped b is taken per b with
    ``_pos``; each set is then one boolean array over (b, a) in [0, box]^2,
    and the two arrays are compared exactly.
    """
    if min(c, d) < 0:
        raise ValueError("c and d must be nonnegative")
    if box < c + d:
        raise ValueError(f"box {box} too small; need at least c + d = {c + d}")
    shift = _pos(c - d)
    clipped = np.array([_pos(b - shift) for b in range(box + 1)])[:, None]
    a = np.arange(box + 1)
    b = a[:, None]
    return np.array_equal(a + clipped <= d, (a <= d) & (a + b <= max(c, d)))


# The cognition-ordering chain, from scenario bit 4-tuples [t1, t2, r1, r2]:
# cognitive rx2, then cognitive t2 (alone, with rx2, with rx1), then both
# cognitive transmitters.
_ORDERING_CHAIN = tuple(CognitionScenario.from_bits(bits) for bits in (
    (0, 0, 0, 1),
    (0, 1, 0, 0),
    (0, 1, 0, 1),
    (0, 1, 1, 0),
    (1, 1, 0, 0),
))
# The chain's positions in ``CognitionScenario.all_scenarios()``.
_ORDERING_POSITIONS = tuple(CognitionScenario.all_scenarios().index(s) for s in _ORDERING_CHAIN)


def scenario_ordering_holds(config: AntennaConfig) -> bool:
    """Check that more cognition never hurts, along the canonical chain.

    Verifies both the closed-form DOF chain
    eta(0,0,0,1) <= eta(0,1,0,0) = eta(0,1,0,1) <= eta(0,1,1,0) <= eta(1,1,0,0)
    and the region-inclusion chain for the same scenarios (with the middle
    pair equal as regions).
    """
    return _ordering_holds([_outer_caps(config, s) for s in _ORDERING_CHAIN],
                           [dof_formula(config, s) for s in _ORDERING_CHAIN])


def _ordering_holds(caps: Sequence[tuple[int, int, int]], etas: Sequence[int]) -> bool:
    """``scenario_ordering_holds``, reading the chain's five outer cap
    triples and five ``dof_formula`` values by position, in chain order.  The
    converse's caps have A, B <= C <= A + B, so each is attained and one
    outer region lies in another exactly when its caps are no larger."""
    e0, e1, e2, e3, e4 = etas
    if not (e0 <= e1 == e2 <= e3 <= e4):
        return False
    r0, r1, r2, r3, r4 = caps
    return r1 == r2 and all(x <= y for lo, hi in ((r0, r1), (r2, r3), (r3, r4))
                            for x, y in zip(lo, hi))
