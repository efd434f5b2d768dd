"""Exact DOF-region computation for the two-user interference channel.

Everything here is integer arithmetic: regions are intersections of integer
halfspaces, vertices are integer points, and the sum-DOF linear program is
solved by evaluating the objective at every vertex.  The inner region is the
convex hull of the achievable integer points; the outer region is the
converse halfspace intersection, whose every bound limits d1, d2 or d1 + d2,
so its at most five corners have a closed form.  The two coincide, and a
closed-form minimum gives the same sum DOF, which the verification sweeps
check exhaustively.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, NamedTuple

from .channel import AntennaConfig, CognitionScenario


class Halfspace(NamedTuple):
    """The halfplane a1*d1 + a2*d2 <= b with integer coefficients."""

    a1: int
    a2: int
    b: int

    def holds(self, point: "DofPoint") -> bool:
        return self.a1 * point.d1 + self.a2 * point.d2 <= self.b

    def normalized(self) -> "Halfspace":
        g = gcd(gcd(abs(self.a1), abs(self.a2)), abs(self.b))
        if g > 1:
            return Halfspace(self.a1 // g, self.a2 // g, self.b // g)
        return self


class DofPoint(NamedTuple):
    """A degrees-of-freedom pair of integers."""

    d1: int
    d2: int


NONNEGATIVITY = (Halfspace(-1, 0, 0), Halfspace(0, -1, 0))

# The normals of the outer bounds: d1 <= A, d2 <= B and d1 + d2 <= C.
_BOUND_NORMALS = ((1, 0), (0, 1), (1, 1))


def _pos(x: int) -> int:
    return x if x > 0 else 0


def _cross(o: DofPoint, a: DofPoint, b: DofPoint) -> int:
    return (a.d1 - o.d1) * (b.d2 - o.d2) - (a.d2 - o.d2) * (b.d1 - o.d1)


def _convex_hull(points: Iterable[tuple[int, int]]) -> list[DofPoint]:
    """Monotone-chain hull, counterclockwise from the lexicographically
    smallest point, collinear interiors dropped; a degenerate hull is its
    sorted point or segment endpoints."""
    pts = sorted({DofPoint(x, y) for x, y in points})
    if len(pts) <= 2:
        return pts
    hull: list[DofPoint] = []
    for chain_points in (pts, pts[::-1]):  # the lower chain, then the upper
        chain: list[DofPoint] = []
        for p in chain_points:
            while len(chain) >= 2 and _cross(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        hull += chain[:-1]
    return hull if len(hull) >= 3 else sorted(set(hull))


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
    def from_halfspaces(cls, halfspaces: Iterable[Halfspace]) -> "Region2D":
        """The region {d >= 0, d1 <= A, d2 <= B, d1 + d2 <= C}.

        Each halfspace must bound d1, d2 or d1 + d2 from above, or be one of
        the nonnegativity halfspaces; any other is rejected.  Since d >= 0, a
        sum bound also caps each count, so A and B are the smallest b over
        the halfspaces each count appears in, and the region's corners are
        integer points read off A, B and C.
        """
        hs = _with_nonnegativity(halfspaces)
        for h in hs:
            if (h.a1, h.a2) not in _BOUND_NORMALS and h not in NONNEGATIVITY:
                raise ValueError(
                    f"unsupported halfspace {tuple(h)}: only upper bounds on "
                    "d1, d2 and d1 + d2 are supported"
                )
        a = min((h.b for h in hs if h.a1 == 1), default=None)
        b = min((h.b for h in hs if h.a2 == 1), default=None)
        if a is None or b is None:
            direction = (1, 0) if a is None else (0, 1)
            raise ValueError(f"region is unbounded or empty (recedes along {direction})")
        if a < 0 or b < 0:
            raise ValueError("region is empty")
        c = min((h.b for h in hs if h.a1 == h.a2 == 1), default=a + b)
        corners = [(0, 0), (a, 0), (0, b), (a, min(b, c - a)), (min(a, c - b), b)]
        return cls(halfspaces=tuple(hs), vertices=tuple(_convex_hull(corners)))

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
        normalized = _dedup([h.normalized() for h in halfspaces])
        return cls(halfspaces=tuple(normalized), vertices=tuple(hull))

    def contains(self, point: DofPoint) -> bool:
        return all(h.holds(point) for h in self.halfspaces)

    def is_subset_of(self, other: "Region2D") -> bool:
        return all(other.contains(v) for v in self.vertices)

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
    return f"{value.numerator}/{value.denominator}"


def _dedup(halfspaces: Iterable[Halfspace]) -> list[Halfspace]:
    seen: dict[Halfspace, None] = {}
    for h in halfspaces:
        seen.setdefault(h, None)
    return list(seen)


def _with_nonnegativity(halfspaces: Iterable[Halfspace]) -> list[Halfspace]:
    return _dedup(list(NONNEGATIVITY) + [h.normalized() for h in halfspaces])


@dataclass(frozen=True)
class AchievableSet:
    """The achievable integer DOF pairs for one configuration and scenario."""

    points: frozenset[tuple[int, int]]
    config: AntennaConfig
    scenario: CognitionScenario


def _achievable(config: AntennaConfig, scenario: CognitionScenario, d1: int, d2: int) -> bool:
    """Whether the integer pair (d1, d2) is achievable by zero forcing.

    It is when both counts are nonnegative and the two transmit-side
    dimension constraints and the two receive-side separation constraints
    all hold.  A receiver that is not cognitive must keep the streams of the
    other message that cannot be nulled at it apart from its own.
    """
    m1, m2, n1, n2 = config.m1, config.m2, config.n1, config.n2
    t1, t2 = scenario.t1, scenario.t2
    # _pos(t1*m1 + m2 - n1) streams of W2 cannot be nulled at receiver 1,
    # and _pos(m1 + t2*m2 - n2) streams of W1 cannot be nulled at receiver 2.
    return (
        d1 >= 0
        and d2 >= 0
        and t1 * d1 + d2 <= t1 * m1 + m2
        and d1 + t2 * d2 <= m1 + t2 * m2
        and d1 + (0 if scenario.r1 else _pos(d2 - _pos(t1 * m1 + m2 - n1))) <= n1
        and d2 + (0 if scenario.r2 else _pos(d1 - _pos(m1 + t2 * m2 - n2))) <= n2
    )


def inner_points(config: AntennaConfig, scenario: CognitionScenario) -> AchievableSet:
    """Enumerate the achievable integer DOF pairs.

    Every left-hand side in ``_achievable`` is nondecreasing in d1 and d2, so
    the achievable set is closed under lowering either count: it is walked
    column by column from (0, 0), each column ending at its first
    unachievable pair.  The walk ends because the transmit-side constraints
    bound both counts by m1 + m2.
    """
    points = set()
    d1 = 0
    while _achievable(config, scenario, d1, 0):
        d2 = 0
        while _achievable(config, scenario, d1, d2):
            points.add((d1, d2))
            d2 += 1
        d1 += 1
    return AchievableSet(points=frozenset(points), config=config, scenario=scenario)


def inner_region(config: AntennaConfig, scenario: CognitionScenario) -> Region2D:
    """Convex hull of the achievable integer points."""
    return Region2D.from_integer_points(inner_points(config, scenario).points)


def outer_region(config: AntennaConfig, scenario: CognitionScenario) -> Region2D:
    """Converse region: intersection of the known DOF upper bounds.

    The two sum bounds tied to a cognitive transmitter are dropped exactly
    when that transmitter is cognitive, matching the closed-form minimum in
    dof_formula; a cognitive receiver on the same side relaxes max(...) to a
    sum of the two counts.  Every bound limits d1, d2 or d1 + d2, so the
    region is {d >= 0, d1 <= A, d2 <= B, d1 + d2 <= C} with integer A, B, C.
    """
    m1, m2, n1, n2 = config.counts
    halfspaces = [
        Halfspace(1, 1, m1 + m2),
        Halfspace(1, 1, n1 + n2),
        Halfspace(1, 0, n1),
        Halfspace(0, 1, n2),
    ]
    if not scenario.t2:
        halfspaces.append(Halfspace(1, 0, m1))
        halfspaces.append(Halfspace(1, 1, (m1 + n2) if scenario.r2 else max(m1, n2)))
    if not scenario.t1:
        halfspaces.append(Halfspace(0, 1, m2))
        halfspaces.append(Halfspace(1, 1, (m2 + n1) if scenario.r1 else max(m2, n1)))
    return Region2D.from_halfspaces(halfspaces)


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
    return dof_formula(config, CognitionScenario())


def dof_cooperation_upper_bounds(config: AntennaConfig) -> tuple[int, int]:
    """The two genie upper bounds (max(m1, n2), max(m2, n1))."""
    return (max(config.m1, config.n2), max(config.m2, config.n1))


def lemma5_holds(c: int, d: int, box: int) -> bool:
    """Check the clipped-sum identity on the integer box [0, box]^2.

    The set {a + (b - (c - d)^+)^+ <= d} must coincide with
    {a <= d and a + b <= max(c, d)}.  Requires box >= c + d so the box covers
    everywhere the two sets could differ.
    """
    if min(c, d) < 0:
        raise ValueError("c and d must be nonnegative")
    if box < c + d:
        raise ValueError(f"box {box} too small; need at least c + d = {c + d}")
    shift = _pos(c - d)
    for a in range(box + 1):
        for b in range(box + 1):
            lhs = a + _pos(b - shift) <= d
            rhs = a <= d and a + b <= max(c, d)
            if lhs != rhs:
                return False
    return True


# The cognition-ordering chain, as scenario bit 4-tuples [t1, t2, r1, r2]:
# cognitive rx2, then cognitive t2 (alone, with rx2, with rx1), then both
# cognitive transmitters.
_ORDERING_CHAIN = (
    (0, 0, 0, 1),
    (0, 1, 0, 0),
    (0, 1, 0, 1),
    (0, 1, 1, 0),
    (1, 1, 0, 0),
)


def scenario_ordering_holds(config: AntennaConfig) -> bool:
    """Check that more cognition never hurts, along the canonical chain.

    Verifies both the closed-form DOF chain
    eta(0,0,0,1) <= eta(0,1,0,0) = eta(0,1,0,1) <= eta(0,1,1,0) <= eta(1,1,0,0)
    and the region-inclusion chain for the same scenarios (with the middle
    pair equal as regions).
    """
    scenarios = [CognitionScenario.from_bits(bits) for bits in _ORDERING_CHAIN]
    etas = [dof_formula(config, s) for s in scenarios]
    if not (etas[0] <= etas[1] == etas[2] <= etas[3] <= etas[4]):
        return False
    regions = [outer_region(config, s) for s in scenarios]
    if not regions[0].is_subset_of(regions[1]):
        return False
    if not regions_equal(regions[1], regions[2]):
        return False
    if not regions[2].is_subset_of(regions[3]):
        return False
    return regions[3].is_subset_of(regions[4])
