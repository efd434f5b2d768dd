"""Exact DOF-region computation for the two-user interference channel.

Everything here is integer arithmetic.  The paper's DOF bounds are minima of
antenna sums, so each region is the set of points d >= 0 under three integer
caps, d1 <= A, d2 <= B and d1 + d2 <= C: a ``Caps(a, b, c)``, kept
normalised so that A, B <= C <= A + B.  Every cap is then attained, and
equal triples mean equal regions.  The zero-forcing achievability rule is
written once, as the inner caps of ``_inner_caps``; ``_achievable`` and
``inner_points`` read them, and ``zf`` reads the streams each message can
null from ``_nullable``.  Every converse bound limits d1, d2 or d1 + d2, so
the outer region is the caps of ``_outer_caps``.  The caps' constraint
matrix is totally unimodular, so the region under integer caps has integer
corners and is the convex hull of its integer points; ``Caps.vertices``
writes its at most five corners from the triple, and no hull is taken.  The
two regions coincide exactly when the two triples are equal, and the sum
DOF is then C.  The clipped-sum identity (``lemma5_holds``) is checked by
brute force over a whole box, as two exact integer/boolean arrays compared
element by element.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .channel import AntennaConfig, CognitionScenario


class DofPoint(NamedTuple):
    """A degrees-of-freedom pair of integers."""

    d1: int
    d2: int


_NO_COGNITION = CognitionScenario()


def _pos(x: int) -> int:
    return x if x > 0 else 0


class Caps(NamedTuple):
    """The region {d >= 0, d1 <= a, d2 <= b, d1 + d2 <= c} of integer caps
    with a, b <= c <= a + b."""

    a: int
    b: int
    c: int

    @property
    def vertices(self) -> tuple[DofPoint, ...]:
        """The corners counterclockwise from (0, 0), coincident ones merged;
        a point or a segment keeps only its endpoints."""
        a, b, c = self
        corners = (0, 0), (a, 0), (a, min(b, c - a)), (min(a, c - b), b), (0, b)
        return tuple(dict.fromkeys(DofPoint(*p) for p in corners))

    def to_json_dict(self, config: AntennaConfig, scenario: CognitionScenario) -> dict:
        """Nonnegativity and the three caps as a1*d1 + a2*d2 <= b rows, the
        corners and the sum DOF, the last two as "k/1" strings."""
        rows = (-1, 0, 0), (0, -1, 0), (1, 0, self.a), (0, 1, self.b), (1, 1, self.c)
        return {
            "config": config.to_json_dict(),
            "scenario": list(scenario.bits),
            "halfspaces": [{"a1": a1, "a2": a2, "b": b} for a1, a2, b in rows],
            "vertices": [[f"{v.d1}/1", f"{v.d2}/1"] for v in self.vertices],
            "sum_dof": f"{sum_dof_lp(self)}/1",
        }


@dataclass(frozen=True)
class AchievableSet:
    """The achievable integer DOF pairs for one configuration and scenario."""

    points: frozenset[tuple[int, int]]


def _nullable(config: AntennaConfig, scenario: CognitionScenario) -> tuple[int, int]:
    """How many streams of W1 fit in the kernel of its cross link to receiver
    2, and of W2 in that to receiver 1: the link's input dimension (the
    message's own transmitter, plus the other one when it is cognitive) less
    the receiver's antennas.  These are the streams a message can null at
    the other receiver; ``zf._plan`` nulls up to this many."""
    m1, m2, n1, n2 = config.counts
    return _pos(m1 + scenario.t2 * m2 - n2), _pos(scenario.t1 * m1 + m2 - n1)


def _inner_caps(config: AntennaConfig, scenario: CognitionScenario) -> tuple[int, int, int]:
    """The achievable caps d1 <= A', d2 <= B' and d1 + d2 <= C', with
    A', B' <= C' <= A' + B', as plain ints.

    This is the zero-forcing achievability rule, written once.  Transmit
    side: d1 <= m1 + t2*m2 and d2 <= m2 + t1*(m1 - d1), and with a cognitive
    transmitter 2 also d1 + d2 <= m1 + m2.  Receive side: d1 <= n1, and a
    receiver that is not cognitive keeps the other message's streams that
    are not nulled at it apart from its own, so d2 <= k2 + n1 - d1 where
    receiver 1 is not cognitive and d2 <= n2 - (d1 - k1)^+, that is d2 <= n2
    and d2 <= n2 + k1 - d1, where receiver 2 is not, with (k1, k2) from
    ``_nullable``.  Every scenario has d1 + d2 <= m1 + m2 (without t2,
    d1 <= m1 and d2 <= m2 + t1*(m1 - d1)), so the caps of slope -1 are one
    cap d1 + d2 <= s, with s the least of m1 + m2 and the receive sums in
    force (with t1, m2 + t1*(m1 - d1) is m1 + m2 - d1).  The caps on d2
    alone are n2 and, without t1, m2; those on d1 alone are n1 and
    m1 + t2*m2.  The caps are at least 0 and their coefficients are too, so
    the achievable set holds (0, 0) and is closed under lowering either
    count.  Normalising removes no point: d1 <= s and d2 <= s follow from
    the sum cap, so A' and B' take s in their minimum, and d1 + d2 <= A' + B'
    follows from the other two caps.
    """
    m1, m2, n1, n2 = config.counts
    k1, k2 = _nullable(config, scenario)
    s = m1 + m2
    if not scenario.r1:
        s = min(s, k2 + n1)
    if not scenario.r2:
        s = min(s, n2 + k1)
    a = min(n1, m1 + scenario.t2 * m2, s)
    b = min(n2 if scenario.t1 else min(m2, n2), s)
    return a, b, min(s, a + b)


def _achievable(config: AntennaConfig, scenario: CognitionScenario, d1: int, d2: int) -> bool:
    """Whether the integer pair (d1, d2) is achievable by zero forcing: it
    is nonnegative and under the caps of ``_inner_caps``."""
    a, b, c = _inner_caps(config, scenario)
    return 0 <= d1 <= a and 0 <= d2 <= b and d1 + d2 <= c


def inner_points(config: AntennaConfig, scenario: CognitionScenario) -> AchievableSet:
    """Enumerate the achievable integer DOF pairs: each column d1 <= A' up
    to min(B', C' - d1)."""
    a, b, c = _inner_caps(config, scenario)
    points = frozenset((d1, d2) for d1 in range(a + 1) for d2 in range(min(b, c - d1) + 1))
    return AchievableSet(points=points)


def inner_region(config: AntennaConfig, scenario: CognitionScenario) -> Caps:
    """The achievable region: the caps of ``_inner_caps``, which already
    bound the convex hull of the achievable integer points."""
    return Caps(*_inner_caps(config, scenario))


def _outer_caps(config: AntennaConfig, scenario: CognitionScenario) -> tuple[int, int, int]:
    """The converse caps d1 <= A, d2 <= B and d1 + d2 <= C, with
    A, B <= C <= A + B.

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


def outer_region(config: AntennaConfig, scenario: CognitionScenario) -> Caps:
    """The converse region: the caps of ``_outer_caps``."""
    return Caps(*_outer_caps(config, scenario))


def regions_equal(a: Caps, b: Caps) -> bool:
    """Exact equality of canonicalized regions, as vertex sets."""
    return set(a.vertices) == set(b.vertices)


def sum_dof_lp(region: Caps) -> int:
    """Maximize d1 + d2 over the region by checking every vertex."""
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
