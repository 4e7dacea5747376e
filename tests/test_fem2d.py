import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import splu

from cnflow import fem2d
from cnflow.errors import fit_loglog
from cnflow.fem2d import (
    AssemblyError,
    BorderedSaddle,
    FemMesh2D,
    SolverError,
    build_space,
    triangle_rule,
)
from cnflow.schemes import stationary_stokes_solve

from oracles import assemble_oracle


def exact_monomial(p, q):
    from math import factorial
    return factorial(p) * factorial(q) / factorial(p + q + 2)


@pytest.mark.parametrize("degree", [5, 6])
def test_quadrature_exactness(degree):
    pts, wts = triangle_rule(degree)
    for p in range(degree + 1):
        for q in range(degree + 1 - p):
            approx = np.sum(wts * pts[:, 0] ** p * pts[:, 1] ** q)
            assert approx == pytest.approx(exact_monomial(p, q), abs=1e-15)


def test_mesh_counts():
    mesh = FemMesh2D((-1, 1, -1, 1), 4, 3)
    assert mesh.num_vertices == 20
    assert mesh.num_triangles == 24
    # edges: horizontal 4*4, vertical 5*3, diagonal 12
    assert mesh.num_edges == 16 + 15 + 12


def test_mesh_validation():
    with pytest.raises(ValueError):
        FemMesh2D((1, -1, 0, 1), 2, 2)
    with pytest.raises(ValueError):
        FemMesh2D((0, 1, 0, 1), 0, 2)


def test_space_dof_counts(small_space):
    mesh = small_space.mesh
    assert small_space.num_pressure == mesh.num_vertices
    assert small_space.num_scalar == mesh.num_vertices + mesh.num_edges
    assert small_space.num_velocity == 2 * small_space.num_scalar
    # structured P2 scalar nodes coincide with the refined vertex grid
    assert small_space.num_scalar == (2 * 4 + 1) ** 2


def test_boundary_detection(small_space):
    coords = small_space.scalar_coords[small_space.boundary_scalar]
    on = ((coords[:, 0] == -1) | (coords[:, 0] == 1)
          | (coords[:, 1] == -1) | (coords[:, 1] == 1))
    assert np.all(on)
    assert small_space.boundary_scalar.size == 4 * (2 * 4)


def test_p1_mass_reference_values(two_element_space):
    # both triangles (vertices 0, 1, 3 and 0, 3, 2) have area 1/2: each adds
    # a P1 mass with diagonal 1/12 and off-diagonal 1/24, summed at the
    # shared diagonal vertices 0 and 3; vertices 1 and 2 share no triangle
    expected = np.array([[4.0, 1.0, 1.0, 2.0],
                         [1.0, 2.0, 0.0, 1.0],
                         [1.0, 0.0, 2.0, 1.0],
                         [2.0, 1.0, 1.0, 4.0]]) / 24.0
    assert np.allclose(two_element_space.pressure_mass.toarray(), expected, atol=1e-15)


def test_csr_invariants(small_space):
    for mat in (small_space.mass, small_space.stiffness, small_space.divergence,
                small_space.pressure_mass):
        assert sp.issparse(mat) and mat.format == "csr"
        assert mat.has_canonical_format
        for row in range(mat.shape[0]):
            cols = mat.indices[mat.indptr[row]:mat.indptr[row + 1]]
            assert np.all(np.diff(cols) > 0)


def test_mass_stiffness_symmetry(small_space):
    M, A = small_space.mass, small_space.stiffness
    assert abs(M - M.T).max() == 0.0
    assert abs(A - A.T).max() == 0.0
    # mass positive definite, stiffness PSD with constants in the kernel
    rng = np.random.default_rng(1)
    for _ in range(3):
        v = rng.standard_normal(M.shape[0])
        assert v @ (M @ v) > 0.0
        assert v @ (A @ v) >= -1e-12
    const = np.ones(small_space.num_velocity)
    assert np.max(np.abs(A @ const)) < 1e-12


def test_divergence_on_linear_field(small_space):
    # u = (x, -y) is divergence free and exactly representable
    U = small_space.interpolate_velocity(lambda x, y: (x, -y))
    r = small_space.divergence @ U
    assert np.max(np.abs(r)) < 1e-13


def test_divergence_against_quadrature(small_space):
    U = small_space.interpolate_velocity(lambda x, y: (x * x, x * y))
    # div u = 2x + x = 3x; check one pressure row by direct quadrature
    got = small_space.divergence @ U
    coords = small_space.quad_points_physical()
    div = 3.0 * coords[..., 0]
    from cnflow.fem2d import p1_basis
    psi, _ = p1_basis(small_space.qp6)
    acc = np.zeros(small_space.num_pressure)
    loc = small_space.det[:, None] * np.einsum("q,eq,qm->em", small_space.qw6, div, psi)
    np.add.at(acc, small_space.tri_pressure.ravel(), loc.ravel())
    assert np.allclose(got, acc, atol=1e-13)


def test_convection_zero_field(small_space):
    C = small_space.convection(np.zeros(small_space.num_velocity))
    assert abs(C).max() == 0.0


def test_convection_constant_transport(small_space):
    # w = (1, 0), u = (y, 0): (w . grad) u = (d/dx y, 0) = 0
    w = small_space.interpolate_velocity(lambda x, y: (np.ones_like(x), np.zeros_like(y)))
    u = small_space.interpolate_velocity(lambda x, y: (y, np.zeros_like(x)))
    C = small_space.convection(w)
    assert np.max(np.abs(C @ u)) < 1e-13


@pytest.mark.parametrize("bounds,nx,ny", [((0.0, 1.0, 0.0, 1.0), 1, 1),
                                           ((0.0, 2.0, 0.0, 1.0), 3, 2)],
                         ids=["unit_square_1x1", "rectangle_3x2"])
def test_assembly_matches_quadrature_oracle(bounds, nx, ny):
    # the 3x2 rectangle has non-unit, non-square element Jacobians
    space = build_space(bounds, nx, ny)
    rng = np.random.default_rng(17)
    w = rng.standard_normal(space.num_velocity)
    oracle = assemble_oracle(space, w)
    got = {
        "mass": space.mass,
        "stiffness": space.stiffness,
        "divergence": space.divergence,
        "pressure_mass": space.pressure_mass,
        "convection": space.convection(w),
        "gradient": space.convection_gradient(w),
    }
    for name, mat in got.items():
        dense = np.asarray(mat.todense())
        assert np.max(np.abs(dense - oracle[name])) < 1e-10, name


def test_convection_apply_matches_matrix(small_space):
    rng = np.random.default_rng(3)
    w = rng.standard_normal(small_space.num_velocity)
    u = rng.standard_normal(small_space.num_velocity)
    direct = small_space.convection(w) @ u
    free = small_space.convection_apply(w, u)
    assert np.allclose(direct, free, rtol=1e-13, atol=1e-13)


def _matches_matrix(space, w, u):
    direct = space.convection(w) @ u
    free = space.convection_apply(w, u)
    return np.allclose(free, direct, rtol=1e-13, atol=1e-13 * np.abs(direct).max())


rectangles = st.tuples(
    st.floats(-2.0, 2.0), st.floats(0.25, 3.0), st.floats(-2.0, 2.0), st.floats(0.25, 3.0),
    st.integers(1, 6), st.integers(1, 6),
).filter(lambda r: r[4] != r[5] and abs(r[1] - r[3]) > 0.1)


@settings(max_examples=25, deadline=None)
@given(rect=rectangles, seed=st.integers(0, 2**32 - 1))
def test_convection_apply_matches_matrix_on_rectangles(rect, seed):
    x0, width, y0, height, nx, ny = rect
    space = build_space((x0, x0 + width, y0, y0 + height), nx, ny)
    rng = np.random.default_rng(seed)
    w, u = rng.standard_normal((2, space.num_velocity))
    assert _matches_matrix(space, w, u)


def _convection_apply_columns(space, w, u):
    # the component-column form: both components as the columns of (n, 2) blocks
    val, gx, gy, test = space._quadrature_operators()
    n = space.num_scalar
    W = val @ np.reshape(w, (2, n)).T
    U2 = np.reshape(u, (2, n)).T
    conv = W[:, :1] * (gx @ U2) + W[:, 1:] * (gy @ U2)
    return (test @ conv).T.ravel()


@settings(max_examples=25, deadline=None)
@given(rect=rectangles, seed=st.integers(0, 2**32 - 1))
def test_convection_apply_is_the_column_form_bitwise(rect, seed):
    x0, width, y0, height, nx, ny = rect
    space = build_space((x0, x0 + width, y0, y0 + height), nx, ny)
    rng = np.random.default_rng(seed)
    w, u = rng.standard_normal((2, space.num_velocity))
    assert space.convection_apply(w, u).tobytes() == _convection_apply_columns(space, w, u).tobytes()


def test_convection_apply_keeps_only_the_scalar_operators():
    # both components go through the scalar quadrature operators: no
    # velocity-block copy of them is built or kept
    space = build_space((0.0, 1.0, 0.0, 1.0), 3, 2)
    w, u = np.random.default_rng(4).standard_normal((2, space.num_velocity))
    space.convection_apply(w, u)
    assert set(space._cache) == {"quad_ops"}


@settings(max_examples=25, deadline=None)
@given(rect=rectangles, seed=st.integers(0, 2**32 - 1))
def test_jacobian_is_derivative_of_convection(rect, seed):
    # N(a) = convection_apply(a, a) is quadratic, so the central difference
    # is its exact derivative: the Newton Jacobian C(w) + G(w) must match it
    x0, width, y0, height, nx, ny = rect
    space = build_space((x0, x0 + width, y0, y0 + height), nx, ny)
    rng = np.random.default_rng(seed)
    w, u = rng.standard_normal((2, space.num_velocity))
    h = 0.5

    def N(a):
        return space.convection_apply(a, a)

    jac_u = (space.convection(w) + space.convection_gradient(w)) @ u
    central = (N(w + h * u) - N(w - h * u)) / (2.0 * h)
    assert np.abs(jac_u - central).max() <= 1e-12 * np.abs(jac_u).max()


coefficients = st.floats(-10.0, 10.0).filter(lambda x: x == 0.0 or abs(x) >= 1e-3)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), a=coefficients, b=coefficients)
def test_convection_apply_linear_in_u(small_space, seed, a, b):
    rng = np.random.default_rng(seed)
    w, u1, u2 = rng.standard_normal((3, small_space.num_velocity))
    c1, c2 = small_space.convection_apply(w, u1), small_space.convection_apply(w, u2)
    combined = small_space.convection_apply(w, a * u1 + b * u2)
    scale = abs(a) * np.abs(c1).max() + abs(b) * np.abs(c2).max()
    assert np.allclose(combined, a * c1 + b * c2, rtol=0.0, atol=1e-13 * scale)


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_convection_apply_alternating_spaces(seed):
    spaces = [build_space((0.0, 2.0, 0.0, 1.0), 4, 2), build_space((0.0, 1.0, 0.0, 3.0), 3, 5)]
    rng = np.random.default_rng(seed)
    for space in spaces + spaces:
        w, u = rng.standard_normal((2, space.num_velocity))
        assert _matches_matrix(space, w, u)


def test_degenerate_element_reported():
    mesh = FemMesh2D((0, 1, 0, 1), 1, 1)
    mesh.triangles = mesh.triangles[:, [0, 2, 1]]  # flip orientation
    with pytest.raises(AssemblyError, match="element 0"):
        from cnflow.fem2d import TaylorHoodSpace
        TaylorHoodSpace(mesh)


def test_saddle_zero_rhs(small_space):
    K = (small_space.mass + small_space.stiffness).tocsr()
    state = BorderedSaddle(small_space, K).solve(np.zeros(small_space.num_velocity), K)
    assert np.max(np.abs(state.velocity)) == 0.0
    assert np.max(np.abs(state.pressure)) == 0.0


def test_saddle_pressure_nullspace_filtered(small_space):
    # gradient forcing of a P1 field: zero velocity, pressure recovers the
    # field minus its mean regardless of any constant shift in the data
    space = small_space
    q = space.interpolate_pressure(lambda x, y: np.sin(x) * np.cos(y) + 0.3)
    # load of f = grad q_h: (grad q_h, v) = -(q_h, div v) for v in H^1_0
    F = -(space.divergence.T @ q)
    K = (0.01 * space.stiffness).tocsr()
    state = BorderedSaddle(space, K).solve(F, K)
    assert np.max(np.abs(state.velocity)) < 1e-8
    c = space.mean_vector
    q_shift = q - (c @ q) / c.sum()
    assert np.max(np.abs(state.pressure - q_shift)) < 1e-8
    assert abs(c @ state.pressure) < 1e-10 * max(1.0, np.linalg.norm(state.pressure))


def test_saddle_incompressibility_and_residual(medium_space):
    space = medium_space
    rng = np.random.default_rng(5)
    F = rng.standard_normal(space.num_velocity)
    K = (space.mass + 0.37 * space.stiffness).tocsr()
    state = BorderedSaddle(space, K).solve(F, K)
    U = state.velocity
    assert np.linalg.norm(space.divergence @ U) <= 1e-9 * max(np.linalg.norm(U), 1e-30)
    # momentum residual against interior tests (Galerkin orthogonality)
    r = K @ U - space.divergence.T @ state.pressure - F
    rint = r[space.interior_velocity]
    assert np.linalg.norm(rint) <= 1e-10 * np.linalg.norm(F)


def test_saddle_factorization_reuse(medium_space):
    space = medium_space
    K = (space.mass + space.stiffness).tocsr()
    saddle = BorderedSaddle(space, K)
    rng = np.random.default_rng(6)
    for _ in range(3):
        F = rng.standard_normal(space.num_velocity)
        st = saddle.solve(F, K)
        assert np.isfinite(st.pressure).all()


def test_saddle_solve_certifies_against_the_factored_operator(small_space):
    # the residual of the bordered equations is built from the K handed to
    # solve: any K other than the factored one leaves a residual far above
    # the bound
    K = (small_space.mass + small_space.stiffness).tocsr()
    saddle = BorderedSaddle(small_space, K)
    F = np.random.default_rng(7).standard_normal(small_space.num_velocity)
    saddle.solve(F, K)
    with pytest.raises(SolverError, match="residual"):
        saddle.solve(F, 2 * K)


def test_saddle_system_is_the_per_factorization_construction_bitwise(monkeypatch):
    # the interior divergence and the border column are built once per space;
    # the system handed to the factorization is the one built from scratch,
    # and the saddle keeps none of it but the factorization
    factored = []

    def spy(system):
        factored.append(system)
        return splu(system)

    monkeypatch.setattr(fem2d, "splu", spy)
    space = build_space((-1.0, 1.0, -1.0, 1.0), 3, 2)
    ii, n_p = space.interior_velocity, space.num_pressure
    B_i = space.divergence[:, ii].tocsr()
    c_col = sp.csr_matrix((space.mean_vector, (np.arange(n_p), np.zeros(n_p, dtype=int))),
                          shape=(n_p, 1))
    for k in (0.3, 0.007):
        K = (space.mass + k * space.stiffness).tocsr()
        old = sp.bmat([[K[ii][:, ii].tocsr(), -B_i.T, None],
                       [B_i, None, c_col],
                       [None, c_col.T, None]], format="csc")
        saddle = BorderedSaddle(space, K)
        assert not any(sp.issparse(v) for v in vars(saddle).values())
        new = factored.pop()
        assert new.shape == old.shape
        for attr in ("indptr", "indices", "data"):
            assert getattr(new, attr).tobytes() == getattr(old, attr).tobytes()
    assert space.saddle_border() is space.saddle_border()


def test_stationary_stokes_manufactured_convergence():
    """One-off spatial audit: velocity order 3, pressure order 2."""
    nu = 1.0

    def u_exact(x, y):
        X, Y = (x + 1) / 2, (y + 1) / 2
        sx, cx = np.sin(np.pi * X), np.cos(np.pi * X)
        sy, cy = np.sin(np.pi * Y), np.cos(np.pi * Y)
        return sx * sx * sy * cy * np.pi, -sx * cx * sy * sy * np.pi

    def p_exact(x, y):
        return np.cos(np.pi * (x + 1) / 2) * np.cos(np.pi * (y + 1) / 2)

    def forcing(x, y):
        X, Y = (x + 1) / 2, (y + 1) / 2
        pi = np.pi
        s2x, c2x = np.sin(2 * pi * X), np.cos(2 * pi * X)
        s2y, c2y = np.sin(2 * pi * Y), np.cos(2 * pi * Y)
        # Laplacian of the stream-function velocity; each derivative picks
        # up a factor 1/2 from the [0,1] -> [-1,1] stretch
        lap_ux = (pi ** 3 / 4.0) * s2y * (2.0 * c2x - 1.0)
        lap_uy = -(pi ** 3 / 4.0) * s2x * (2.0 * c2y - 1.0)
        dpx = -0.5 * pi * np.sin(pi * X) * np.cos(pi * Y)
        dpy = -0.5 * pi * np.cos(pi * X) * np.sin(pi * Y)
        return -nu * lap_ux + dpx, -nu * lap_uy + dpy

    errs_u, errs_p, hs = [], [], []
    for n in (4, 8, 16):
        space = build_space((-1, 1, -1, 1), n, n)
        state = stationary_stokes_solve(space, nu, forcing)
        errs_u.append(space.velocity_l2_error(state.velocity, u_exact))
        errs_p.append(space.pressure_l2_error(state.pressure, p_exact))
        hs.append(2.0 / n)
    rate_u = fit_loglog(hs, errs_u).slope
    rate_p = fit_loglog(hs, errs_p).slope
    assert rate_u >= 2.7
    assert rate_p >= 1.8

