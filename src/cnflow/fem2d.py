"""Taylor-Hood (P2/P1) mixed finite elements on a triangulated rectangle.

The rectangle is subdivided into ``Nx x Ny`` cells, each split along the
south-west/north-east diagonal.  Velocity components use quadratic
elements (vertex plus edge-midpoint nodes), the pressure uses linears on
the vertices; the pairing is inf-sup stable so no stabilization terms
are needed.  All operators are assembled into scipy CSR matrices with a
degree-5 exact rule (7 points), which integrates every bilinear and
trilinear form of the pair exactly; load vectors and error quadrature
use a degree-6 exact rule (12 points).

Velocity coefficient vectors are component-blocked: the x-component
scalar coefficients come first, then the y-component.  Homogeneous
Dirichlet conditions are imposed by reducing to interior scalar nodes,
and the zero-mean pressure constraint is appended as a bordered
row/column with a scalar Lagrange multiplier.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu


class AssemblyError(RuntimeError):
    pass


class SolverError(RuntimeError):
    pass


# --- quadrature on the reference triangle (vertices (0,0),(1,0),(0,1)) ---

def _orbit1(w):
    return [((1.0 / 3.0, 1.0 / 3.0), w)]


def _orbit21(a, w):
    return [((a, a), w), ((1.0 - 2.0 * a, a), w), ((a, 1.0 - 2.0 * a), w)]


def _orbit111(a, b, w):
    c = 1.0 - a - b
    pts = []
    for l1, l2, l3 in ((a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)):
        pts.append(((l2, l3), w))
    return pts


def triangle_rule(degree):
    """Points and weights on the reference triangle; weights sum to 1/2."""
    s15 = np.sqrt(15.0)
    if degree == 5:
        data = (_orbit1(9.0 / 40.0)
                + _orbit21((6.0 + s15) / 21.0, (155.0 + s15) / 1200.0)
                + _orbit21((6.0 - s15) / 21.0, (155.0 - s15) / 1200.0))
    elif degree == 6:
        data = (_orbit21(0.063089014491502228, 0.050844906370206817)
                + _orbit21(0.24928674517091042, 0.11678627572637936)
                + _orbit111(0.053145049844816947, 0.31035245103378439,
                            0.082851075618373575))
    else:
        raise ValueError(f"no rule of degree {degree}")
    pts = np.array([p for p, _ in data])
    wts = 0.5 * np.array([w for _, w in data])
    return pts, wts


def p2_basis(points):
    """Quadratic basis values and reference gradients at given points."""
    xi, eta = points[:, 0], points[:, 1]
    l1, l2, l3 = 1.0 - xi - eta, xi, eta
    phi = np.stack([
        l1 * (2.0 * l1 - 1.0),
        l2 * (2.0 * l2 - 1.0),
        l3 * (2.0 * l3 - 1.0),
        4.0 * l1 * l2,
        4.0 * l2 * l3,
        4.0 * l3 * l1,
    ], axis=1)  # (nq, 6)
    g1 = np.array([-1.0, -1.0])
    g2 = np.array([1.0, 0.0])
    g3 = np.array([0.0, 1.0])
    grad = np.empty((points.shape[0], 6, 2))
    grad[:, 0] = np.outer(4.0 * l1 - 1.0, g1)
    grad[:, 1] = np.outer(4.0 * l2 - 1.0, g2)
    grad[:, 2] = np.outer(4.0 * l3 - 1.0, g3)
    grad[:, 3] = 4.0 * (np.outer(l2, g1) + np.outer(l1, g2))
    grad[:, 4] = 4.0 * (np.outer(l3, g2) + np.outer(l2, g3))
    grad[:, 5] = 4.0 * (np.outer(l1, g3) + np.outer(l3, g1))
    return phi, grad


def p1_basis(points):
    xi, eta = points[:, 0], points[:, 1]
    psi = np.stack([1.0 - xi - eta, xi, eta], axis=1)  # (nq, 3)
    grad = np.broadcast_to(
        np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]]), (points.shape[0], 3, 2))
    return psi, grad


class FemMesh2D:
    """Structured triangulation of a rectangle.

    Each of the ``Nx x Ny`` cells is split along its SW-NE diagonal into
    two counterclockwise triangles.
    """

    def __init__(self, bounds, nx, ny):
        x0, x1, y0, y1 = bounds
        if x1 <= x0 or y1 <= y0 or nx < 1 or ny < 1:
            raise ValueError("invalid rectangle or subdivision counts")
        self.bounds = (float(x0), float(x1), float(y0), float(y1))
        self.nx, self.ny = int(nx), int(ny)
        xs = np.linspace(x0, x1, nx + 1)
        ys = np.linspace(y0, y1, ny + 1)
        X, Y = np.meshgrid(xs, ys, indexing="xy")
        self.vertices = np.column_stack([X.ravel(), Y.ravel()])

        def vid(ix, iy):
            return iy * (nx + 1) + ix

        tris = []
        for iy in range(ny):
            for ix in range(nx):
                v00, v10 = vid(ix, iy), vid(ix + 1, iy)
                v01, v11 = vid(ix, iy + 1), vid(ix + 1, iy + 1)
                tris.append((v00, v10, v11))
                tris.append((v00, v11, v01))
        self.triangles = np.asarray(tris, dtype=np.int64)

        edge_ids = {}
        tri_edges = np.empty((len(tris), 3), dtype=np.int64)
        for e, (a, b, c) in enumerate(self.triangles):
            for slot, (p, q) in enumerate(((a, b), (b, c), (c, a))):
                key = (min(p, q), max(p, q))
                if key not in edge_ids:
                    edge_ids[key] = len(edge_ids)
                tri_edges[e, slot] = edge_ids[key]
        self.tri_edges = tri_edges
        self.edges = np.array(sorted(edge_ids, key=edge_ids.get), dtype=np.int64)
        self.num_vertices = self.vertices.shape[0]
        self.num_edges = self.edges.shape[0]
        self.num_triangles = self.triangles.shape[0]

    def on_boundary(self, coords):
        x0, x1, y0, y1 = self.bounds
        x, y = coords[:, 0], coords[:, 1]
        return (x == x0) | (x == x1) | (y == y0) | (y == y1)


class TaylorHoodSpace:
    """P2 velocity / P1 pressure space with precomputed element data."""

    def __init__(self, mesh):
        self.mesh = mesh
        mids = 0.5 * (mesh.vertices[mesh.edges[:, 0]] + mesh.vertices[mesh.edges[:, 1]])
        self.scalar_coords = np.vstack([mesh.vertices, mids])
        self.num_scalar = mesh.num_vertices + mesh.num_edges
        self.num_velocity = 2 * self.num_scalar
        self.num_pressure = mesh.num_vertices

        self.tri_scalar = np.hstack([mesh.triangles, mesh.num_vertices + mesh.tri_edges])
        self.tri_pressure = mesh.triangles

        self.boundary_scalar = np.flatnonzero(mesh.on_boundary(self.scalar_coords))
        mask = np.ones(self.num_scalar, dtype=bool)
        mask[self.boundary_scalar] = False
        self.interior_scalar = np.flatnonzero(mask)
        self.interior_velocity = np.concatenate(
            [self.interior_scalar, self.num_scalar + self.interior_scalar])

        v = mesh.vertices[mesh.triangles]
        jac = np.stack([v[:, 1] - v[:, 0], v[:, 2] - v[:, 0]], axis=2)  # (nt,2,2)
        det = jac[:, 0, 0] * jac[:, 1, 1] - jac[:, 0, 1] * jac[:, 1, 0]
        bad = np.flatnonzero(det <= 0.0)
        if bad.size:
            raise AssemblyError(f"element {bad[0]} has nonpositive Jacobian determinant")
        inv_jt = np.empty_like(jac)
        inv_jt[:, 0, 0] = jac[:, 1, 1]
        inv_jt[:, 0, 1] = -jac[:, 1, 0]
        inv_jt[:, 1, 0] = -jac[:, 0, 1]
        inv_jt[:, 1, 1] = jac[:, 0, 0]
        inv_jt /= det[:, None, None]
        self.det = det
        self._jac = jac
        self._v0 = v[:, 0]

        self.qp, self.qw = triangle_rule(5)
        self.phi2, grad2_ref = p2_basis(self.qp)
        self.psi1, _ = p1_basis(self.qp)
        # physical gradients: (nt, nq, 6, 2)
        self.grad2 = np.einsum("eab,qib->eqia", inv_jt, grad2_ref)

        self.qp6, self.qw6 = triangle_rule(6)
        self.phi2_6, _ = p2_basis(self.qp6)
        self.psi1_6, _ = p1_basis(self.qp6)

        self._cache = {}

    def quad_points_physical(self):
        """Physical coordinates of the degree-6 quadrature points, shape (nt, nq, 2)."""
        return self._v0[:, None, :] + np.einsum("eab,qb->eqa", self._jac, self.qp6)

    # --- assembly ------------------------------------------------------

    def _assembled(self, key, build):
        """The operator cached under ``key``, built by ``build()`` on first use
        (``perfbench/spans.py`` reads the keys to tell an assembly from a hit)."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def _scatter(self, local, rows_map, cols_map, shape, symmetric=False):
        """Global CSR matrix of reference-scaled element matrices ``local``
        (``det`` multiplies them here); ``symmetric`` forms are symmetrized
        first, so their symmetry does not depend on the association order
        inside the contraction."""
        if symmetric:
            local = 0.5 * (local + np.swapaxes(local, -1, -2))
        local = self.det[:, None, None] * local
        nt, a, b = local.shape
        rows = np.broadcast_to(rows_map[:, :, None], (nt, a, b)).ravel()
        cols = np.broadcast_to(cols_map[:, None, :], (nt, a, b)).ravel()
        mat = sp.coo_matrix((local.ravel(), (rows, cols)), shape=shape).tocsr()
        mat.sum_duplicates()
        mat.sort_indices()
        return mat

    @property
    def scalar_mass(self):
        n = self.num_scalar
        return self._assembled("Ms", lambda: self._scatter(
            np.einsum("q,qi,qj->ij", self.qw, self.phi2, self.phi2),
            self.tri_scalar, self.tri_scalar, (n, n), symmetric=True))

    @property
    def scalar_stiffness(self):
        n = self.num_scalar
        return self._assembled("As", lambda: self._scatter(
            np.einsum("q,eqia,eqja->eij", self.qw, self.grad2, self.grad2),
            self.tri_scalar, self.tri_scalar, (n, n), symmetric=True))

    @property
    def mass(self):
        return self._assembled("M", lambda: sp.block_diag(
            [self.scalar_mass, self.scalar_mass], format="csr"))

    @property
    def stiffness(self):
        return self._assembled("A", lambda: sp.block_diag(
            [self.scalar_stiffness, self.scalar_stiffness], format="csr"))

    @property
    def divergence(self):
        """(B U)_q = integral of q_h div u_h; shape (n_pressure, n_velocity)."""
        shape = (self.num_pressure, self.num_scalar)
        return self._assembled("B", lambda: sp.hstack([self._scatter(
            np.einsum("q,qm,eqj->emj", self.qw, self.psi1, self.grad2[..., d]),
            self.tri_pressure, self.tri_scalar, shape) for d in (0, 1)], format="csr"))

    @property
    def pressure_mass(self):
        n_p = self.num_pressure
        return self._assembled("Mp", lambda: self._scatter(
            np.einsum("q,qi,qj->ij", self.qw, self.psi1, self.psi1),
            self.tri_pressure, self.tri_pressure, (n_p, n_p), symmetric=True))

    @property
    def mean_vector(self):
        """Vector c with c_q = integral of the pressure basis function q."""
        def build():
            loc = self.det[:, None] * np.einsum("q,qm->m", self.qw, self.psi1)
            c = np.zeros(self.num_pressure)  # a COO sum may reorder the duplicates
            np.add.at(c, self.tri_pressure.ravel(),
                      np.broadcast_to(loc, self.tri_pressure.shape).ravel())
            return c

        return self._assembled("c", build)

    @property
    def divergence_transpose(self):
        """``B^T`` in CSR, for the ``B^T P`` term of every momentum residual."""
        return self._assembled("BT", lambda: self.divergence.T.tocsr())

    def _quadrature_operators(self):
        """Sparse maps between scalar P2 coefficients and the assembly points.

        ``val``, ``gx`` and ``gy`` take coefficients to the values and the
        x- and y-derivatives at the 7 points of every element, one row per
        point (element-major) with its element's 6 entries; ``test`` is
        ``val^T`` scaled by ``det * qw``, so ``test @ g`` integrates point
        values ``g`` against every scalar basis function.
        """
        def build():
            nt, nq = self.mesh.num_triangles, self.qw.size
            shape = (nt * nq, self.num_scalar)
            indptr = np.arange(0, 6 * nt * nq + 1, 6)
            indices = np.repeat(self.tri_scalar, nq, axis=0).ravel()

            def point_map(data):
                return sp.csr_matrix((data.ravel(), indices, indptr), shape=shape)

            phi = np.broadcast_to(self.phi2, (nt, nq, 6))
            weight = self.det[:, None, None] * self.qw[:, None]
            return (point_map(phi), point_map(self.grad2[..., 0]),
                    point_map(self.grad2[..., 1]), point_map(weight * phi).T.tocsr())

        return self._assembled("quad_ops", build)

    def convection_apply(self, w, u):
        """Matrix-free evaluation of the convection term against all tests.

        Returns the vector with entries ``integral (w_h . grad u_h) . v_i``;
        equivalent to ``convection(w) @ u`` without building the matrix.
        Each velocity component goes through the scalar quadrature
        operators, one single-vector product per operator.
        """
        val, gx, gy, test = self._quadrature_operators()
        n = self.num_scalar
        wx, wy = val @ w[:n], val @ w[n:]
        return np.concatenate([test @ (wx * (gx @ c) + wy * (gy @ c))
                               for c in (u[:n], u[n:])])

    def _velocity_columns(self, w):
        """The two components of a velocity vector as the columns of an (n, 2) block."""
        w = np.asarray(w, dtype=float)
        if w.shape != (self.num_velocity,):
            raise ValueError("velocity coefficient vector of wrong length")
        return w.reshape(2, self.num_scalar).T

    def convection(self, w):
        """C(w) with (C(w) U) . v = integral (w_h . grad u_h) . v_h (plain form)."""
        val, gx, gy, test = self._quadrature_operators()
        W = val @ self._velocity_columns(w)
        cs = test @ (sp.diags(W[:, 0]) @ gx + sp.diags(W[:, 1]) @ gy)
        return sp.block_diag([cs, cs], format="csr")

    def convection_gradient(self, w):
        """G(w) with (G(w) U') . v = integral (u'_h . grad w_h) . v_h.

        Block ``[c][d]`` weights ``u'_d`` with ``d w_c / d x_d``; with ``convection``
        this is the full linearization of the quadratic convection term.
        """
        val, gx, gy, test = self._quadrature_operators()
        W = self._velocity_columns(w)
        dW = (gx @ W, gy @ W)
        return sp.bmat([[test @ sp.diags(dW[d][:, c]) @ val for d in (0, 1)]
                        for c in (0, 1)], format="csr")

    def velocity_load(self, f):
        """Load vector of a velocity-valued function (degree-6 rule).

        ``f(x, y)`` must accept numpy arrays and return the pair of
        component arrays.
        """
        coords = self.quad_points_physical()
        fx, fy = f(coords[..., 0], coords[..., 1])
        out = np.zeros(self.num_velocity)
        for comp, vals in enumerate((fx, fy)):
            loc = self.det[:, None] * np.einsum("q,eq,qi->ei", self.qw6, vals, self.phi2_6)
            np.add.at(out, comp * self.num_scalar + self.tri_scalar.ravel(), loc.ravel())
        return out

    def interpolate_velocity(self, f):
        """Nodal interpolant coefficients of a velocity field."""
        x, y = self.scalar_coords[:, 0], self.scalar_coords[:, 1]
        fx, fy = f(x, y)
        return np.concatenate([np.asarray(fx, dtype=float), np.asarray(fy, dtype=float)])

    def interpolate_pressure(self, f):
        x, y = self.mesh.vertices[:, 0], self.mesh.vertices[:, 1]
        return np.asarray(f(x, y), dtype=float)

    def velocity_l2_error(self, u, f):
        """Quadrature L2 distance between discrete u and a callable field."""
        coords = self.quad_points_physical()
        fx, fy = f(coords[..., 0], coords[..., 1])
        ux = np.einsum("ej,qj->eq", u[: self.num_scalar][self.tri_scalar], self.phi2_6)
        uy = np.einsum("ej,qj->eq", u[self.num_scalar:][self.tri_scalar], self.phi2_6)
        err2 = (ux - fx) ** 2 + (uy - fy) ** 2
        return float(np.sqrt(np.sum(self.det * np.einsum("q,eq->e", self.qw6, err2))))

    def pressure_l2_error(self, p, f):
        coords = self.quad_points_physical()
        fv = f(coords[..., 0], coords[..., 1])
        pv = np.einsum("ej,qj->eq", p[self.tri_pressure], self.psi1_6)
        return float(np.sqrt(np.sum(self.det * np.einsum("q,eq->e", self.qw6, (pv - fv) ** 2))))

    def saddle_border(self):
        """The blocks every ``BorderedSaddle`` of this space shares: the
        divergence on interior velocity nodes and the zero-mean border
        column ``c``."""
        def build():
            B_i = self.divergence[:, self.interior_velocity].tocsr()
            n_p = self.num_pressure
            c_col = sp.csr_matrix((self.mean_vector, (np.arange(n_p), np.zeros(n_p, dtype=int))),
                                  shape=(n_p, 1))
            return B_i, c_col

        return self._assembled("saddle_border", build)


def build_space(bounds, nx, ny):
    return TaylorHoodSpace(FemMesh2D(bounds, nx, ny))


@dataclass
class MixedState:
    """Velocity and (zero-mean) pressure coefficients."""

    velocity: np.ndarray
    pressure: np.ndarray


_SADDLE_RTOL = 1e-10  # relative residual bound of one saddle-point solve


class BorderedSaddle:
    """Direct factorization of one constrained saddle-point system.

    Solves, reduced to interior velocity nodes and bordered with the
    zero-mean pressure constraint,

        K U - B^T P = F
        B U + c lam = 0
        c . P       = 0.

    The factorization is reused across right-hand sides, which is what
    the time steppers rely on when the step size repeats; it is all a
    saddle keeps of the bordered system.
    """

    def __init__(self, space, K):
        self.space = space
        ii = space.interior_velocity
        B_i, c_col = space.saddle_border()
        system = sp.bmat([
            [K[ii][:, ii].tocsr(), -B_i.T, None],
            [B_i, None, c_col],
            [None, c_col.T, None],
        ], format="csc")
        try:
            self.lu = splu(system)
        except RuntimeError as exc:
            raise SolverError(f"saddle-point factorization failed: {exc}") from None

    def _block_solve(self, momentum, divergence=0.0, mean=0.0):
        """Right-hand side ``[momentum on interior nodes | divergence | mean]``,
        the bordered solution, and its velocity and pressure parts."""
        ii = self.space.interior_velocity
        rhs = np.empty(ii.size + self.space.num_pressure + 1)
        rhs[:ii.size], rhs[ii.size:-1], rhs[-1] = momentum[ii], divergence, mean
        x = self.lu.solve(rhs)
        U = np.zeros(self.space.num_velocity)
        U[ii] = x[:ii.size]
        return rhs, x, U, x[ii.size:-1]

    def solve(self, F, K):
        """The state with momentum load ``F``, certified by the residual of the
        bordered equations of the factored ``K`` and by the pressure mean."""
        space, F = self.space, np.asarray(F, dtype=float)
        rhs, x, U, P = self._block_solve(F)
        c = space.mean_vector
        resid = float(np.linalg.norm(np.concatenate([
            (K @ U - space.divergence_transpose @ P - F)[space.interior_velocity],
            space.divergence @ U + c * x[-1], [c @ P]])))
        scale = max(float(np.linalg.norm(rhs)), 1e-30)
        if not np.isfinite(resid) or resid > _SADDLE_RTOL * scale:
            raise SolverError(f"saddle-point solve residual {resid:.3e} above "
                              f"{_SADDLE_RTOL:.1e} * {scale:.3e}")
        mean = abs(float(c @ P))
        if mean > 1e-10 * max(1.0, float(np.linalg.norm(P))):
            raise SolverError(f"pressure mean {mean:.3e} above tolerance")
        return MixedState(U, P)

    def correction(self, r, rd, rm):
        """Newton update ``(dU, dP)`` of the momentum, divergence and mean
        residuals; the caller's next residual certifies it."""
        return self._block_solve(-r, -rd, -rm)[2:]
