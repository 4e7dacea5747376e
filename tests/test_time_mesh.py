import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnflow.time_mesh import (
    TimeMesh,
    build_alternating_mesh,
    build_uniform_mesh,
    uniform_rho_bound,
)


def brute_force_rho(nodes):
    steps = np.diff(nodes)
    return steps.max() / steps.min()


def test_uniform_mesh_nodes():
    mesh = build_uniform_mesh(2.0, 4)
    assert np.allclose(mesh.nodes, [0.0, 0.5, 1.0, 1.5, 2.0])
    assert mesh.rho == 1.0


def test_uniform_single_interval():
    mesh = build_uniform_mesh(1.0, 1)
    assert mesh.num_intervals == 1
    assert mesh.nodes[-1] == 1.0


def test_uniform_reference_step():
    mesh = build_uniform_mesh(2.0, 4000)
    assert mesh.k_max == pytest.approx(0.0005, rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(T=st.floats(1e-6, 1e6), N=st.integers(1, 50_000))
def test_uniform_rho_bound_holds(T, N):
    assert build_uniform_mesh(T, N).rho - 1.0 <= uniform_rho_bound(T, N)


def test_uniform_rho_bound_limits():
    # the stock references (3,200 and 6,400 steps on [0, 2]) are far inside
    # the 1e-9 uniformity check; 3.2e7 steps on [0, 2e4] are not
    assert uniform_rho_bound(2.0, 6400) < 1e-11
    assert uniform_rho_bound(2e4, 32_000_000) > 1e-9
    assert uniform_rho_bound(-1.0, 4) == np.inf


@pytest.mark.parametrize("bad", [(0.0, 4), (-1.0, 4), (2.0, 0), (np.nan, 4), (np.inf, 4)])
def test_uniform_invalid_arguments(bad):
    with pytest.raises(ValueError):
        build_uniform_mesh(*bad)


def test_alternating_first_steps():
    mesh = build_alternating_mesh(2.0, 0.02, [0.8, 1.2])
    assert np.allclose(mesh.steps[:4], [0.016, 0.024, 0.016, 0.024])
    assert mesh.nodes[-1] == 2.0


def test_alternating_trivial_pattern_is_uniform():
    mesh = build_alternating_mesh(1.0, 0.1, [1.0])
    assert mesh.num_intervals == 10
    assert mesh.rho == pytest.approx(1.0, abs=1e-12)


def test_alternating_invalid_factor():
    with pytest.raises(ValueError):
        build_alternating_mesh(1.0, 0.1, [0.5, -0.5])
    with pytest.raises(ValueError):
        build_alternating_mesh(1.0, 0.1, [0.5, 0.6])  # mean != 1


@pytest.mark.parametrize("T, base_k, pattern", [
    (np.nan, 0.1, [1.0]), (np.inf, 0.1, [1.0]), (1.0, np.nan, [1.0]),
    (1.0, np.inf, [1.0]), (1.0, 0.1, [np.nan, np.nan]), (1.0, 0.1, [np.inf, 0.5]),
])
def test_alternating_non_finite_arguments(T, base_k, pattern):
    # NaN and inf defeat every comparison that closes the mesh, which
    # would otherwise append nodes without bound
    with pytest.raises(ValueError):
        build_alternating_mesh(T, base_k, pattern)


def test_alternating_nondivisible_final_step_adjusted():
    # T not a multiple of the period: final step stretched, endpoint exact
    mesh = build_alternating_mesh(0.95, 0.1, [1.0])
    assert mesh.nodes[-1] == 0.95
    assert abs(mesh.steps.sum() - 0.95) <= 1e-12 * 0.95
    assert mesh.rho <= 1.5 + 1e-12


def test_step_sums_and_ratio_recomputation():
    for mesh in (build_uniform_mesh(2.0, 7),
                 build_alternating_mesh(2.0, 0.02, [0.8, 1.2]),
                 build_alternating_mesh(1.3, 0.07, [1.1, 0.9, 1.0])):
        assert abs(mesh.steps.sum() - mesh.T) <= 1e-12 * mesh.T
        assert mesh.rho == pytest.approx(brute_force_rho(mesh.nodes), rel=1e-12)


def test_nodes_validation():
    with pytest.raises(ValueError):
        TimeMesh([0.0, 0.5, 0.5, 1.0])
    with pytest.raises(ValueError):
        TimeMesh([0.1, 0.5, 1.0])
    for nodes in ([0.0, np.nan], [0.0, 1.0, np.inf], [0.0, np.nan, 1.0]):
        with pytest.raises(ValueError):
            TimeMesh(nodes)


def test_tau_first_interval_vanishes():
    mesh = build_uniform_mesh(2.0, 8)
    assert mesh.tau_values(1.5)[0] == 0.0


def test_tau_values():
    mesh = build_uniform_mesh(2.0, 8)
    assert mesh.tau_values(1.0)[5] == pytest.approx(1.0)   # min(1.25, 1)
    assert mesh.tau_values(2.0)[2] == pytest.approx(0.25)  # 0.5 ** 2


def test_tau_zero_exponent_convention():
    mesh = build_uniform_mesh(2.0, 8)
    # 0 ** 0 == 1 on the first interval
    assert mesh.tau_values(0.0)[0] == 1.0
    assert np.all(mesh.tau_values(0.0) == 1.0)


def test_tau_out_of_range():
    # the weight at a time is looked up through interval_of, which
    # rejects times beyond the final node
    mesh = build_uniform_mesh(2.0, 8)
    assert mesh.tau_values(1.0).shape == (8,)
    with pytest.raises(ValueError):
        mesh.interval_of(2.5)


def test_interval_of_is_right_closed():
    # I^n = (t_{n-1}, t_n]: a node belongs to the interval it ends, so a
    # piecewise-constant value at a time is values[interval_of(t) - 1]
    mesh = build_uniform_mesh(1.0, 4)
    assert mesh.interval_of(0.25) == 1
    assert mesh.interval_of(0.2500001) == 2
    assert mesh.interval_of(1.0) == 4
    assert mesh.interval_of(0.0) == 1
    assert mesh.interval_of(np.array([0.25, 0.5, 0.75])).tolist() == [1, 2, 3]


def test_tau_monotonicity():
    mesh = build_alternating_mesh(2.0, 0.05, [0.8, 1.2])
    for alpha in (0.5, 1.0, 2.0):
        vals = mesh.tau_values(alpha)
        assert np.all(np.diff(vals) >= -1e-15)
    # nonincreasing in alpha while the base is <= 1
    n = mesh.interval_of(0.5) - 1
    assert mesh.tau_values(2.0)[n] <= mesh.tau_values(1.0)[n] <= mesh.tau_values(0.5)[n]


def test_smoothing_weight_bounds():
    mesh = build_uniform_mesh(2.0, 10)
    vals = mesh.tau_values(1.5)
    assert vals[0] == 0.0
    assert np.all(vals <= 1.0 + 1e-15)
    with pytest.raises(ValueError):
        mesh.tau_values(-1.0)


@pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf])
def test_tau_values_refuse_non_finite_exponents(alpha):
    # nan gave NaN weights, so every weighted norm read nan; inf gave a 0/1 step
    mesh = build_uniform_mesh(2.0, 10)
    with pytest.raises(ValueError, match="finite"):
        mesh.tau_values(alpha)


def test_tau_values_build_one_read_only_array_per_alpha():
    mesh = build_alternating_mesh(2.0, 0.05, [0.8, 1.2])
    base = np.minimum(mesh.nodes[:-1], 1.0)
    for alpha, fresh in [(0.0, np.ones(mesh.num_intervals)), (0.5, base ** 0.5),
                         (1.0, base ** 1.0), (1.5, base ** 1.5)]:
        w = mesh.tau_values(alpha)
        assert mesh.tau_values(alpha) is w
        assert not w.flags.writeable
        assert w.tobytes() == fresh.tobytes()
    # the memo belongs to its mesh, and an exponent of another type finds its entry
    assert build_alternating_mesh(2.0, 0.05, [0.8, 1.2]).tau_values(1.0) is not w
    assert mesh.tau_values(np.array(1.5)) is w and mesh.tau_values(1) is mesh.tau_values(1.0)


def test_mesh_immutability():
    mesh = build_uniform_mesh(1.0, 4)
    with pytest.raises(ValueError):
        mesh.nodes[0] = 0.1


@settings(max_examples=50, deadline=None)
@given(T=st.floats(0.1, 2.0), base_k=st.floats(0.01, 0.5),
       factors=st.lists(st.floats(0.25, 4.0), min_size=1, max_size=4))
def test_alternating_mesh_tiles_with_the_cycle(T, base_k, factors):
    pattern = np.asarray(factors) / np.mean(factors)
    mesh = build_alternating_mesh(T, base_k, pattern)
    assert mesh.nodes[-1] == T
    cycle = base_k * pattern[np.arange(mesh.num_intervals - 1) % pattern.size]
    # a step is a difference of accumulated nodes: equal up to rounding of t
    assert np.allclose(mesh.steps[:-1], cycle, rtol=0, atol=1e-14 * T)
