import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hrg.errors import BoxBudgetError, BoxIndexError, EpsRangeError, NonPrimeError
from hrg.geometry import distance_class_sizes, distance_exponents, make_params
from oracles import BoxIndex, all_boxes, block_distance, shell_measure


def test_make_params_examples():
    p = make_params(2, 1, 0.1)
    assert p.L == 2 and p.phi_dim == 0.725
    p = make_params(3, 1, 0.5)
    assert p.L == 3 and p.phi_dim == 0.625
    p = make_params(2, 2, 0.1)
    assert p.L == 4 and p.phi_dim == 0.725


def test_make_params_derived_identity():
    for (pp, ll, ee) in [(2, 1, 0.1), (3, 2, 0.5), (5, 1, 1.0)]:
        mp = make_params(pp, ll, ee)
        assert 0.5 <= mp.phi_dim < 0.75
        lhs = float(mp.L) ** (3.0 - 4.0 * mp.phi_dim)
        assert lhs == pytest.approx(float(mp.L) ** mp.eps, rel=1e-15)


def test_make_params_rejects_bad_input():
    with pytest.raises(NonPrimeError):
        make_params(4, 1, 0.1)
    with pytest.raises(NonPrimeError):
        make_params(1, 1, 0.1)
    with pytest.raises(EpsRangeError):
        make_params(2, 1, 0.0)
    with pytest.raises(EpsRangeError):
        make_params(2, 1, 1.5)
    # past the float range the box count is refused, not overflowed
    with pytest.raises(BoxBudgetError):
        make_params(2, 342, 0.1)
    assert make_params(2, 341, 0.1).n_boxes == 2**1023
    # any finite box count is admitted
    assert make_params(5, 2, 0.1).n_boxes == 15625


def test_shell_measure_examples():
    p2 = make_params(2, 1, 0.1)
    assert shell_measure(p2, 0) == pytest.approx(0.875, abs=1e-15)
    assert shell_measure(p2, 1) == pytest.approx(7.0, abs=1e-12)
    p3 = make_params(3, 1, 0.1)
    assert shell_measure(p3, -1) == pytest.approx(26.0 / 729.0, rel=1e-14)


def test_shell_measure_telescopes_to_ball():
    p = make_params(3, 1, 0.3)
    for cap in (0, 1, 2):
        total = sum(shell_measure(p, k) for k in range(cap, -60, -1))
        assert total == pytest.approx(float(p.p) ** (3 * cap), rel=1e-12)


def test_block_distance_single_level():
    p = make_params(2, 1, 0.1)
    boxes = all_boxes(p)
    assert len(boxes) == 8
    assert block_distance(boxes[0], boxes[0], p) == 0.0
    for b in boxes[1:]:
        assert block_distance(boxes[0], b, p) == 2.0


def test_block_distance_two_levels_brute_force():
    p = make_params(2, 2, 0.1)
    boxes = all_boxes(p)
    assert len(boxes) == 64
    # sharing the coarse level but not the fine one -> distance p
    i = BoxIndex((0, 0, 0, 0, 0, 0))
    j = BoxIndex((0, 0, 0, 0, 0, 1))
    assert block_distance(i, j, p) == 2.0
    k = BoxIndex((0, 0, 1, 0, 0, 0))
    assert block_distance(i, k, p) == 4.0
    # full ultrametric check over all pairs and triples on a sample
    d = np.array([[block_distance(a, b, p) for b in boxes] for a in boxes])
    assert np.allclose(d, d.T)
    assert np.all(np.diag(d) == 0.0)
    rng = np.random.default_rng(0)
    idx = rng.integers(0, 64, size=(300, 3))
    for a, b, c in idx:
        assert d[a, c] <= max(d[a, b], d[b, c]) + 1e-12


def test_distance_class_sizes_match_tree():
    for (pp, ll) in [(2, 1), (2, 2), (3, 2)]:
        p = make_params(pp, ll, 0.1)
        boxes = all_boxes(p)
        sizes = distance_class_sizes(p)
        ref = boxes[0]
        for k in range(1, ll + 1):
            count = sum(1 for b in boxes if block_distance(ref, b, p) == float(pp**k))
            assert count == sizes[k - 1] == pp ** (3 * k) - pp ** (3 * (k - 1))


def test_distance_exponents_matrix_matches_block_distance():
    p = make_params(3, 2, 0.2)
    boxes = all_boxes(p)
    k = distance_exponents(p.p, p.l)
    for i in range(0, len(boxes), 37):
        for j in range(0, len(boxes), 23):
            d = block_distance(boxes[i], boxes[j], p)
            expect = 0.0 if k[i, j] == 0 else float(p.p ** k[i, j])
            assert d == expect


def test_tree_order_prefix_is_sub_ball():
    # the first p^(3j) boxes in enumeration order form the ball of radius p^j
    p = make_params(2, 2, 0.1)
    boxes = all_boxes(p)
    for j in (0, 1):
        prefix = boxes[: 2 ** (3 * j)]
        for b in prefix:
            assert block_distance(boxes[0], b, p) <= float(2**j)


def test_block_distance_validates_index():
    p = make_params(2, 1, 0.1)
    with pytest.raises(BoxIndexError):
        block_distance(BoxIndex((0, 0)), BoxIndex((0, 0, 0)), p)
    with pytest.raises(BoxIndexError):
        block_distance(BoxIndex((0, 0, 2)), BoxIndex((0, 0, 0)), p)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 3**6 - 1), st.integers(0, 3**6 - 1), st.integers(0, 3**6 - 1))
def test_ultrametric_property_hypothesis(a, b, c):
    p = make_params(3, 2, 0.4)
    boxes = all_boxes(p)
    x, y, z = boxes[a], boxes[b], boxes[c]
    dxz = block_distance(x, z, p)
    assert dxz <= max(block_distance(x, y, p), block_distance(y, z, p))
    assert (dxz == 0.0) == (x == z)
