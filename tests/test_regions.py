import itertools
from fractions import Fraction
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from micdof.channel import AntennaConfig, CognitionScenario
from micdof.regions import (
    Caps,
    DofPoint,
    _achievable,
    _inner_caps,
    _ordering_holds,
    _outer_caps,
    dof_cooperation,
    dof_cooperation_upper_bounds,
    dof_formula,
    inner_points,
    inner_region,
    lemma5_holds,
    outer_region,
    regions_equal,
    scenario_ordering_holds,
    sum_dof_lp,
)

counts = st.integers(min_value=1, max_value=5)
configs = st.builds(AntennaConfig, m1=counts, m2=counts, n1=counts, n2=counts)
scenarios = st.sampled_from(CognitionScenario.all_scenarios())


def pt(x, y):
    return DofPoint(Fraction(x), Fraction(y))


class Halfspace(NamedTuple):
    """The halfplane a1*d1 + a2*d2 <= b, for the reference checks."""

    a1: int
    a2: int
    b: int

    def holds(self, point):
        return self.a1 * point[0] + self.a2 * point[1] <= self.b


NONNEGATIVITY = (Halfspace(-1, 0, 0), Halfspace(0, -1, 0))


def cap_halfspaces(caps):
    """Nonnegativity and the three caps of a region, as Halfspaces."""
    a, b, c = caps
    return (*NONNEGATIVITY, Halfspace(1, 0, a), Halfspace(0, 1, b), Halfspace(1, 1, c))


def recession_direction(halfspaces):
    """A nonzero direction the region can recede along, if any.

    Any extreme ray of the recession cone is orthogonal to some constraint
    normal, so checking both rotations of every normal is exhaustive.
    """
    hs = list(halfspaces)
    candidates = set()
    for h in hs:
        candidates.add((-h.a2, h.a1))
        candidates.add((h.a2, -h.a1))
    for rx, ry in candidates:
        if rx == 0 and ry == 0:
            continue
        if all(h.a1 * rx + h.a2 * ry <= 0 for h in hs):
            return (rx, ry)
    return None


def reference_vertices(halfspaces):
    """Vertices of a bounded region by intersecting every pair of boundary
    lines in exact rationals and keeping the feasible intersections."""
    hs = list(halfspaces)
    found = set()
    for h, g in itertools.combinations(hs, 2):
        det = h.a1 * g.a2 - h.a2 * g.a1
        if det == 0:
            continue
        candidate = DofPoint(
            Fraction(h.b * g.a2 - h.a2 * g.b, det),
            Fraction(h.a1 * g.b - h.b * g.a1, det),
        )
        if all(other.holds(candidate) for other in hs):
            found.add(candidate)
    return found


def counterclockwise_from_origin(vertices):
    """Whether the vertices start at (0, 0) and turn strictly left at each
    one; a point or a segment is its endpoints in sorted order."""
    vs = list(vertices)
    if vs[:1] != [(0, 0)]:
        return False
    if len(vs) <= 2:
        return vs == sorted(vs)
    turns = zip(vs, vs[1:] + vs[:1], vs[2:] + vs[:2])
    return all((q[0] - p[0]) * (r[1] - q[1]) > (q[1] - p[1]) * (r[0] - q[0]) for p, q, r in turns)


def paper_bounds(config, scenario):
    """The converse bounds as the paper lists them, as Halfspaces: the
    transmit- and receive-side sums and each receiver's count, then for each
    non-cognitive transmitter its own count and its max(...) sum bound,
    relaxed to a sum when the receiver on the same side is cognitive."""
    m1, m2, n1, n2 = config.counts
    bounds = [Halfspace(1, 1, m1 + m2), Halfspace(1, 1, n1 + n2),
              Halfspace(1, 0, n1), Halfspace(0, 1, n2)]
    if not scenario.t2:
        bounds += [Halfspace(1, 0, m1),
                   Halfspace(1, 1, (m1 + n2) if scenario.r2 else max(m1, n2))]
    if not scenario.t1:
        bounds += [Halfspace(0, 1, m2),
                   Halfspace(1, 1, (m2 + n1) if scenario.r1 else max(m2, n1))]
    return bounds


def definition_membership(config, scenario, d1, d2):
    """The four achievability inequalities, written out independently."""
    m1, m2, n1, n2 = config.counts
    t1, t2, r1, r2 = scenario.bits
    pos = lambda v: max(v, 0)
    return (
        t1 * d1 + d2 <= t1 * m1 + m2
        and d1 + t2 * d2 <= m1 + t2 * m2
        and (1 - r1) * pos(d2 - pos(t1 * m1 + m2 - n1)) + d1 <= n1
        and (1 - r2) * pos(d1 - pos(m1 + t2 * m2 - n2)) + d2 <= n2
    )


# ---------------------------------------------------------------- inner set


def test_inner_points_smallest_channel():
    got = inner_points(AntennaConfig(1, 1, 1, 1), CognitionScenario()).points
    assert got == {(0, 0), (1, 0), (0, 1)}


def test_inner_points_full_cognitive_transmitters():
    aset = inner_points(
        AntennaConfig(2, 2, 2, 2), CognitionScenario.from_bits([1, 1, 0, 0])
    )
    assert (2, 2) in aset.points


def test_inner_points_contains_origin_and_matches_definition():
    # Every config at counts 1..4 and every scenario, on d1, d2 from -1 to
    # one past m1 + m2; _achievable is checked at counts 1..3.
    for counts in itertools.product(range(1, 5), repeat=4):
        config = AntennaConfig(*counts)
        box = range(-1, config.m1 + config.m2 + 2)
        for scenario in CognitionScenario.all_scenarios():
            points = inner_points(config, scenario).points
            assert (0, 0) in points
            for d1, d2 in itertools.product(box, box):
                expected = min(d1, d2) >= 0 and definition_membership(config, scenario, d1, d2)
                assert ((d1, d2) in points) == expected, (config, scenario, d1, d2)
                if max(counts) <= 3:
                    assert _achievable(config, scenario, d1, d2) == expected, (config, scenario, d1, d2)


@settings(max_examples=60)
@given(configs, scenarios)
def test_inner_points_downward_closed(config, scenario):
    points = inner_points(config, scenario).points
    for d1, d2 in points:
        for e1 in range(d1 + 1):
            for e2 in range(d2 + 1):
                assert (e1, e2) in points


# ------------------------------------------------------------------ regions


def test_inner_region_smallest_channel():
    region = inner_region(AntennaConfig(1, 1, 1, 1), CognitionScenario())
    assert set(region.vertices) == {pt(0, 0), pt(1, 0), pt(0, 1)}


def test_inner_region_max_sum_over_its_corners():
    region = inner_region(
        AntennaConfig(2, 2, 2, 2), CognitionScenario.from_bits([0, 1, 0, 1])
    )
    assert sum_dof_lp(region) == 2


def test_outer_region_no_cognition_triangle():
    region = outer_region(AntennaConfig(2, 2, 2, 2), CognitionScenario())
    assert set(region.vertices) == {pt(0, 0), pt(2, 0), pt(0, 2)}


def test_outer_region_cognitive_tx2_sum():
    region = outer_region(
        AntennaConfig(1, 3, 3, 1), CognitionScenario.from_bits([0, 1, 0, 0])
    )
    assert sum_dof_lp(region) == 3


def test_outer_region_fully_cognitive_square():
    region = outer_region(
        AntennaConfig(1, 1, 1, 1), CognitionScenario.from_bits([1, 1, 1, 1])
    )
    assert set(region.vertices) == {pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1)}


def test_nonnegativity_always_present():
    # The report lists d1 >= 0 and d2 >= 0 first, and (0, 0) is a corner.
    config, scenario = AntennaConfig(3, 1, 2, 2), CognitionScenario()
    region = outer_region(config, scenario)
    rows = region.to_json_dict(config, scenario)["halfspaces"]
    assert rows[:2] == [{"a1": -1, "a2": 0, "b": 0}, {"a1": 0, "a2": -1, "b": 0}]
    assert region.vertices[0] == (0, 0)


def test_regions_equal_is_reflexive_and_scale_sensitive():
    tri = Caps(1, 1, 1)
    tri2 = Caps(2, 2, 2)
    assert regions_equal(tri, tri)
    assert not regions_equal(tri, tri2)


def test_inner_outer_equality_small_sweep():
    # Independent cross-check of inner = outer, at the integer level:
    # membership under the achievability inequalities must coincide with the
    # outer halfspaces on the whole enumeration box, and every outer vertex
    # must be an achievable integer point.  Together those force region
    # equality without trusting the cap or vertex-enumeration code.
    for m1, m2, n1, n2 in itertools.product(range(1, 4), repeat=4):
        config = AntennaConfig(m1, m2, n1, n2)
        for scenario in CognitionScenario.all_scenarios():
            outer = outer_region(config, scenario)
            halfspaces = cap_halfspaces(outer)
            box = m1 + m2
            for d1 in range(box + 1):
                for d2 in range(box + 1):
                    inside = all(
                        h.a1 * d1 + h.a2 * d2 <= h.b for h in halfspaces
                    )
                    assert inside == definition_membership(config, scenario, d1, d2)
            for v in outer.vertices:
                assert v.d1.denominator == 1 and v.d2.denominator == 1
                assert definition_membership(
                    config, scenario, int(v.d1), int(v.d2)
                )
            assert regions_equal(inner_region(config, scenario), outer)


def test_outer_caps_are_the_tightest_paper_bounds():
    # A, B and C are the smallest bounds on d1, d2 and d1 + d2, the first two
    # capped at C; the region is exactly those caps, and its corners are
    # those of the paper's whole bound list.
    for counts in itertools.product(range(1, 5), repeat=4):
        config = AntennaConfig(*counts)
        for scenario in CognitionScenario.all_scenarios():
            bounds = paper_bounds(config, scenario)
            c = min(h.b for h in bounds if (h.a1, h.a2) == (1, 1))
            a = min(c, *(h.b for h in bounds if (h.a1, h.a2) == (1, 0)))
            b = min(c, *(h.b for h in bounds if (h.a1, h.a2) == (0, 1)))
            assert _outer_caps(config, scenario) == (a, b, c)
            assert c <= a + b  # so every cap is attained
            outer = outer_region(config, scenario)
            assert type(outer) is Caps and outer == (a, b, c)
            assert set(outer.vertices) == reference_vertices([*NONNEGATIVITY, *bounds])


def test_outer_region_matches_pairwise_intersection_reference():
    # The closed-form corners against general vertex enumeration.
    for counts in itertools.product(range(1, 5), repeat=4):
        config = AntennaConfig(*counts)
        for scenario in CognitionScenario.all_scenarios():
            outer = outer_region(config, scenario)
            assert recession_direction(cap_halfspaces(outer)) is None
            assert set(outer.vertices) == reference_vertices(cap_halfspaces(outer))


def test_region_vertices_are_python_ints():
    for counts in itertools.product(range(1, 5), repeat=4):
        config = AntennaConfig(*counts)
        for scenario in CognitionScenario.all_scenarios():
            for region in (outer_region(config, scenario), inner_region(config, scenario)):
                assert all(type(c) is int for v in region.vertices for c in v)


def test_inner_region_is_its_caps_and_the_hull_of_every_point():
    # inner_region is the three inner caps.  Its corners are the vertices of
    # its halfspaces, in order, and every corner is achievable, while every
    # achievable point satisfies the caps: so the region is the hull of every
    # achievable point, down to the element types, without taking a hull.
    for counts in itertools.product(range(1, 5), repeat=4):
        config = AntennaConfig(*counts)
        for scenario in CognitionScenario.all_scenarios():
            got = inner_region(config, scenario)
            assert type(got) is Caps and got == _inner_caps(config, scenario)
            halfspaces = cap_halfspaces(got)
            assert set(got.vertices) == reference_vertices(halfspaces)
            assert counterclockwise_from_origin(got.vertices)
            assert all(definition_membership(config, scenario, *v) for v in got.vertices)
            points = inner_points(config, scenario).points
            assert all(h.holds(p) for p in points for h in halfspaces)
            assert all(type(v) is DofPoint for v in got.vertices)
            assert all(type(c) is int for c in got)
            assert all(type(c) is int for v in got.vertices for c in v)


def test_caps_corners_are_the_vertices_of_their_halfspaces():
    # Caps.vertices writes its corners from a, b and c; they must be the
    # vertices of the caps' halfspaces, distinct and in order, and integer
    # points under the caps, so the region is the hull of its integer points.
    for a, b in itertools.product(range(13), repeat=2):
        for c in range(max(a, b), a + b + 3):
            corners = Caps(a, b, c).vertices
            halfspaces = cap_halfspaces((a, b, c))
            assert set(corners) == reference_vertices(halfspaces)
            assert len(set(corners)) == len(corners)
            assert counterclockwise_from_origin(corners)
            assert all(h.holds(v) for v in corners for h in halfspaces)
            assert all(type(v) is DofPoint for v in corners)
            assert all(type(x) is int for v in corners for x in v)


def test_inner_caps_are_normalised():
    # Equal triples mean equal regions only for normalised caps: A', B' <=
    # C' <= A' + B' as plain ints, so every cap is attained.
    for counts in itertools.product(range(1, 5), repeat=4):
        config = AntennaConfig(*counts)
        for scenario in CognitionScenario.all_scenarios():
            caps = _inner_caps(config, scenario)
            assert type(caps) is tuple and all(type(cap) is int for cap in caps), caps
            a, b, c = caps
            assert 0 <= a <= c and 0 <= b <= c <= a + b, (config, scenario, caps)


@settings(max_examples=40)
@given(configs, scenarios)
def test_every_region_vertex_is_integer_and_feasible(config, scenario):
    for region in (outer_region(config, scenario), inner_region(config, scenario)):
        for v in region.vertices:
            assert v.d1.denominator == 1 and v.d2.denominator == 1
            assert all(h.holds(v) for h in cap_halfspaces(region))
        assert all(h.holds(pt(0, 0)) for h in cap_halfspaces(region))


@settings(max_examples=40)
@given(configs, scenarios, scenarios)
def test_more_cognition_never_shrinks_region(config, a, b):
    joined = CognitionScenario.from_bits(
        tuple(max(x, y) for x, y in zip(a.bits, b.bits))
    )
    # Every vertex of the smaller region meets every bound of the larger.
    larger = cap_halfspaces(outer_region(config, joined))
    assert all(h.holds(v) for v in outer_region(config, a).vertices for h in larger)


# --------------------------------------------------------------------- LP


def test_sum_dof_lp_examples():
    tri = Caps(2, 2, 2)
    assert sum_dof_lp(tri) == 2
    single = Caps(0, 0, 0)
    assert sum_dof_lp(single) == 0


def test_sum_dof_lp_guards_hand_built_regions():
    # Outer regions are bounded by construction; the reference recession
    # check still flags a hand-built unbounded one.
    assert recession_direction(NONNEGATIVITY) is not None


# ------------------------------------------------------------ closed forms


@pytest.mark.parametrize("counts,bits,expected", [
    ((1, 3, 3, 1), (0, 0, 0, 0), 1),
    ((1, 3, 3, 1), (0, 1, 0, 0), 3),
    ((2, 3, 4, 1), (1, 1, 0, 0), 5),
    ((2, 2, 2, 2), (0, 0, 0, 1), 2),
])
def test_dof_formula_examples(counts, bits, expected):
    config = AntennaConfig(*counts)
    scenario = CognitionScenario.from_bits(bits)
    assert dof_formula(config, scenario) == expected
    assert sum_dof_lp(outer_region(config, scenario)) == expected


def test_single_stream_bottleneck_family():
    for n in range(1, 6):
        assert dof_formula(AntennaConfig(1, n, n, 1), CognitionScenario()) == 1


@settings(max_examples=80)
@given(configs, scenarios)
def test_formula_matches_lp(config, scenario):
    assert Fraction(dof_formula(config, scenario)) == sum_dof_lp(
        outer_region(config, scenario)
    )


def _swap_users(config, scenario):
    # Relabel user 1 as user 2 and vice versa.
    return (AntennaConfig(m1=config.m2, m2=config.m1, n1=config.n2, n2=config.n1),
            CognitionScenario(t1=scenario.t2, t2=scenario.t1, r1=scenario.r2, r2=scenario.r1))


@settings(max_examples=80)
@given(configs, scenarios)
def test_formula_swap_invariant(config, scenario):
    swapped = _swap_users(config, scenario)
    assert dof_formula(config, scenario) == dof_formula(*swapped)


@pytest.mark.parametrize("counts,expected", [
    ((1, 4, 4, 1), 1),
    ((2, 2, 2, 2), 2),
    ((3, 1, 1, 3), 1),
])
def test_dof_cooperation_examples(counts, expected):
    assert dof_cooperation(AntennaConfig(*counts)) == expected


@settings(max_examples=60)
@given(configs)
def test_cooperation_equals_no_cognition(config):
    assert dof_cooperation(config) == dof_formula(config, CognitionScenario())
    assert dof_cooperation(config) <= min(dof_cooperation_upper_bounds(config))


@pytest.mark.parametrize("counts,expected", [
    ((2, 2, 2, 2), (2, 2)),
    ((1, 3, 3, 1), (1, 3)),
    ((4, 1, 2, 5), (5, 2)),
])
def test_cooperation_upper_bounds(counts, expected):
    assert dof_cooperation_upper_bounds(AntennaConfig(*counts)) == expected


# ------------------------------------------------------- identities/chains


def brute_lemma5(c, d, box):
    pos = lambda v: max(v, 0)
    lhs = {(a, b) for a in range(box + 1) for b in range(box + 1)
           if a + pos(b - pos(c - d)) <= d}
    rhs = {(a, b) for a in range(box + 1) for b in range(box + 1)
           if a <= d and a + b <= max(c, d)}
    return lhs == rhs


@pytest.mark.parametrize("c,d,box", [(3, 2, 10), (0, 0, 5), (5, 0, 8)])
def test_lemma5_examples(c, d, box):
    assert lemma5_holds(c, d, box)
    assert brute_lemma5(c, d, box)


def test_lemma5_spot_values():
    pos = lambda v: max(v, 0)
    c, d = 3, 2
    in_lhs = lambda a, b: a + pos(b - pos(c - d)) <= d
    in_rhs = lambda a, b: a <= d and a + b <= max(c, d)
    assert in_lhs(2, 1) and in_rhs(2, 1)
    assert in_lhs(0, 3) and in_rhs(0, 3)
    assert not in_lhs(0, 4) and not in_rhs(0, 4)


def test_lemma5_arrays_match_the_brute_force_sets_verify_checks():
    # The 81 (c, d) pairs of ``micdof verify``, on its box.
    for c in range(9):
        for d in range(9):
            assert lemma5_holds(c, d, 20) == brute_lemma5(c, d, 20), (c, d)


def test_lemma5_rejects_small_box():
    with pytest.raises(ValueError, match="box"):
        lemma5_holds(5, 4, box=8)


def test_lemma5_rejects_a_negative_count():
    with pytest.raises(ValueError, match="nonnegative"):
        lemma5_holds(-1, 0, 5)


@settings(max_examples=60)
@given(st.integers(0, 8), st.integers(0, 8), st.integers(0, 6))
def test_lemma5_property(c, d, extra):
    assert lemma5_holds(c, d, box=c + d + extra)


@pytest.mark.parametrize("counts,chain", [
    # Values of the closed form along the cognition chain
    # [0,0,0,1] <= [0,1,0,0] = [0,1,0,1] <= [0,1,1,0] <= [1,1,0,0],
    # cross-checked against the LP below.
    ((2, 2, 2, 2), [2, 2, 2, 4, 4]),
    ((1, 3, 3, 1), [2, 3, 3, 4, 4]),
    ((1, 1, 1, 1), [1, 1, 1, 2, 2]),
])
def test_scenario_ordering_chain_values(counts, chain):
    config = AntennaConfig(*counts)
    bits_chain = [(0, 0, 0, 1), (0, 1, 0, 0), (0, 1, 0, 1), (0, 1, 1, 0), (1, 1, 0, 0)]
    got = []
    for bits in bits_chain:
        scenario = CognitionScenario.from_bits(bits)
        eta = dof_formula(config, scenario)
        assert Fraction(eta) == sum_dof_lp(outer_region(config, scenario))
        got.append(eta)
    assert got == chain
    assert scenario_ordering_holds(config)


def test_ordering_fails_on_a_formula_chain_that_breaks():
    # The caps chain holds (all equal), so only the formula half can fail:
    # eta(0,1,0,0) = eta(0,1,0,1) is broken, then eta(0,1,0,1) <= eta(0,1,1,0).
    caps = [(1, 1, 2)] * 5
    assert _ordering_holds(caps, [2, 2, 2, 4, 4])
    assert not _ordering_holds(caps, [2, 2, 3, 4, 4])
    assert not _ordering_holds(caps, [2, 3, 3, 2, 4])


def test_cognition_strictly_gains_where_the_abstract_says_it_can():
    # The abstract's existence claims, counted over counts 1..4: some
    # cognition scenario raises the DOF above no cognition, and a cognitive
    # transmitter 2 can beat a cognitive receiver 2, never the reverse.
    plain, tx2, rx2 = CognitionScenario(), CognitionScenario(t2=True), CognitionScenario(r2=True)
    gains, tx_wins, rx_wins = [], [], []
    for counts in itertools.product(range(1, 5), repeat=4):
        config = AntennaConfig(*counts)
        base = dof_formula(config, plain)
        best = max(dof_formula(config, sc) for sc in CognitionScenario.all_scenarios())
        if best > base:
            gains.append((counts, base, best))
        tx, rx = dof_formula(config, tx2), dof_formula(config, rx2)
        if tx > rx:
            tx_wins.append((counts, rx, tx))
        if rx > tx:
            rx_wins.append(counts)
    assert (len(gains), gains[0]) == (216, ((1, 1, 1, 1), 1, 2))
    assert (len(tx_wins), tx_wins[0]) == (16, ((1, 2, 3, 1), 2, 3))
    assert rx_wins == []


@settings(max_examples=60)
@given(configs)
def test_scenario_ordering_property(config):
    assert scenario_ordering_holds(config)


# -------------------------------------------------------------- serialization


def test_region_json_schema():
    config = AntennaConfig(1, 3, 3, 1)
    scenario = CognitionScenario.from_bits([0, 1, 0, 0])
    data = outer_region(config, scenario).to_json_dict(config, scenario)
    assert data["config"] == {"m1": 1, "m2": 3, "n1": 3, "n2": 1}
    assert data["scenario"] == [0, 1, 0, 0]
    assert all(set(h) == {"a1", "a2", "b"} for h in data["halfspaces"])
    assert all(
        isinstance(c, str) and "/" in c for v in data["vertices"] for c in v
    )
    assert data["sum_dof"] == "3/1"
