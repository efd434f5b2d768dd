import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from micdof.channel import AntennaConfig, CognitionScenario
from micdof.regions import (
    DofPoint,
    Halfspace,
    Region2D,
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


@settings(max_examples=60)
@given(configs, scenarios)
def test_inner_points_contains_origin_and_matches_definition(config, scenario):
    aset = inner_points(config, scenario)
    assert (0, 0) in aset.points
    box = config.m1 + config.m2
    for d1 in range(box + 1):
        for d2 in range(box + 1):
            assert ((d1, d2) in aset.points) == definition_membership(config, scenario, d1, d2)


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


def test_inner_region_max_sum_via_hull():
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
    region = outer_region(AntennaConfig(3, 1, 2, 2), CognitionScenario())
    assert Halfspace(-1, 0, 0) in region.halfspaces
    assert Halfspace(0, -1, 0) in region.halfspaces


def test_regions_equal_is_reflexive_and_scale_sensitive():
    tri = Region2D.from_integer_points([(0, 0), (1, 0), (0, 1)])
    tri2 = Region2D.from_integer_points([(0, 0), (2, 0), (0, 2)])
    assert regions_equal(tri, tri)
    assert not regions_equal(tri, tri2)


def test_inner_outer_equality_small_sweep():
    # Independent cross-check of inner = outer, at the integer level:
    # membership under the achievability inequalities must coincide with the
    # outer halfspaces on the whole enumeration box, and every outer vertex
    # must be an achievable integer point.  Together those force hull
    # equality without trusting the hull or vertex-enumeration code.
    for m1, m2, n1, n2 in itertools.product(range(1, 4), repeat=4):
        config = AntennaConfig(m1, m2, n1, n2)
        for scenario in CognitionScenario.all_scenarios():
            outer = outer_region(config, scenario)
            box = m1 + m2
            for d1 in range(box + 1):
                for d2 in range(box + 1):
                    inside = all(
                        h.a1 * d1 + h.a2 * d2 <= h.b for h in outer.halfspaces
                    )
                    assert inside == definition_membership(config, scenario, d1, d2)
            for v in outer.vertices:
                assert v.d1.denominator == 1 and v.d2.denominator == 1
                assert definition_membership(
                    config, scenario, int(v.d1), int(v.d2)
                )
            assert regions_equal(inner_region(config, scenario), outer)


def test_outer_region_matches_pairwise_intersection_reference():
    # The closed-form corners against general vertex enumeration.
    for counts in itertools.product(range(1, 5), repeat=4):
        config = AntennaConfig(*counts)
        for scenario in CognitionScenario.all_scenarios():
            outer = outer_region(config, scenario)
            assert recession_direction(outer.halfspaces) is None
            assert set(outer.vertices) == reference_vertices(outer.halfspaces)


def test_region_vertices_are_python_ints():
    for counts in itertools.product(range(1, 5), repeat=4):
        config = AntennaConfig(*counts)
        for scenario in CognitionScenario.all_scenarios():
            for region in (outer_region(config, scenario), inner_region(config, scenario)):
                assert all(type(c) is int for v in region.vertices for c in v)


def test_from_halfspaces_matches_reference_on_hand_built_bounds():
    cases = [
        [Halfspace(1, 1, 3)],
        [Halfspace(1, 0, 2), Halfspace(0, 1, 2)],
        [Halfspace(1, 0, 0), Halfspace(0, 1, 4), Halfspace(1, 1, 2)],
        [Halfspace(2, 0, 4), Halfspace(0, 3, 3), Halfspace(1, 1, 9)],
        [Halfspace(1, 0, 0), Halfspace(0, 1, 0)],
    ]
    for halfspaces in cases:
        region = Region2D.from_halfspaces(halfspaces)
        assert set(region.vertices) == reference_vertices(region.halfspaces)


@pytest.mark.parametrize("halfspace", [
    Halfspace(1, 2, 4), Halfspace(1, -1, 0), Halfspace(-1, 0, -1), Halfspace(2, 2, 3),
])
def test_from_halfspaces_rejects_other_normals(halfspace):
    with pytest.raises(ValueError, match="unsupported halfspace"):
        Region2D.from_halfspaces([Halfspace(1, 1, 5), halfspace])


@settings(max_examples=40)
@given(configs, scenarios)
def test_every_region_vertex_is_integer_and_feasible(config, scenario):
    for region in (outer_region(config, scenario), inner_region(config, scenario)):
        for v in region.vertices:
            assert v.d1.denominator == 1 and v.d2.denominator == 1
            assert all(h.holds(v) for h in region.halfspaces)
        assert region.contains(pt(0, 0))


@settings(max_examples=40)
@given(configs, scenarios, scenarios)
def test_more_cognition_never_shrinks_region(config, a, b):
    joined = CognitionScenario.from_bits(
        tuple(max(x, y) for x, y in zip(a.bits, b.bits))
    )
    assert outer_region(config, a).is_subset_of(outer_region(config, joined))


# --------------------------------------------------------------------- LP


def test_sum_dof_lp_examples():
    tri = Region2D.from_integer_points([(0, 0), (2, 0), (0, 2)])
    assert sum_dof_lp(tri) == 2
    single = Region2D.from_integer_points([(0, 0)])
    assert sum_dof_lp(single) == 0


def test_sum_dof_lp_rejects_unbounded():
    with pytest.raises(ValueError, match="unbounded|empty"):
        Region2D.from_halfspaces([Halfspace(0, 1, 3)])


def test_sum_dof_lp_rejects_empty():
    with pytest.raises(ValueError, match="empty|unbounded"):
        Region2D.from_halfspaces(
            [Halfspace(1, 0, -1), Halfspace(0, 1, 5), Halfspace(1, 1, 5)]
        )


def test_sum_dof_lp_guards_hand_built_regions():
    # Regions from from_halfspaces are bounded by construction; the
    # reference recession check still flags a hand-built unbounded one.
    assert recession_direction((Halfspace(-1, 0, 0), Halfspace(0, -1, 0))) is not None
    empty = Region2D(halfspaces=(), vertices=())
    with pytest.raises(ValueError, match="no vertices"):
        sum_dof_lp(empty)


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


def test_lemma5_rejects_small_box():
    with pytest.raises(ValueError, match="box"):
        lemma5_holds(5, 4, box=8)


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
