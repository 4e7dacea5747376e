"""Independent oracles for the assembly, rate-fitting and spectral
stability tests.

The quadrature oracle integrates over each triangle with a tensor-product
Gauss rule mapped through the Duffy transform (degree 10 in each
direction), sharing no code with the production assembly path.  Basis
functions are evaluated from their monomial definitions.

The stability oracle steps one trial at a time with ``cn_step_spectral``,
stores the whole trajectory and its forcing, and composes the norms of the
smoothing estimate on full coefficient rows: the stored-trajectory form of
``spectral_stokes.stability_reports``, which streams a block of trials.  Its
per-interval rows, taken by ``vs_row_norm`` from the stored averages and
derivatives, are the stored-trajectory form of ``spectral_stokes._trial_rows``.
"""

import numpy as np


def duffy_rule(n=10):
    """Tensor Gauss rule on the reference triangle via the Duffy map."""
    x, w = np.polynomial.legendre.leggauss(n)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    pts, wts = [], []
    for xu, wu in zip(x, w):
        for xv, wv in zip(x, w):
            # (u, v) in unit square -> (xi, eta) = (u, v(1-u)), Jacobian (1-u)
            pts.append((xu, xv * (1.0 - xu)))
            wts.append(wu * wv * (1.0 - xu))
    return np.array(pts), np.array(wts)


def p2_values(xi, eta):
    l1, l2, l3 = 1.0 - xi - eta, xi, eta
    return np.array([
        l1 * (2 * l1 - 1), l2 * (2 * l2 - 1), l3 * (2 * l3 - 1),
        4 * l1 * l2, 4 * l2 * l3, 4 * l3 * l1,
    ])


def p2_gradients(xi, eta):
    l1, l2, l3 = 1.0 - xi - eta, xi, eta
    g1, g2, g3 = np.array([-1.0, -1.0]), np.array([1.0, 0.0]), np.array([0.0, 1.0])
    return np.array([
        (4 * l1 - 1) * g1, (4 * l2 - 1) * g2, (4 * l3 - 1) * g3,
        4 * (l2 * g1 + l1 * g2), 4 * (l3 * g2 + l2 * g3), 4 * (l1 * g3 + l3 * g1),
    ])


def p1_values(xi, eta):
    return np.array([1.0 - xi - eta, xi, eta])


def element_oracle(coords, w_elem=None, n=10):
    """All local element matrices of one triangle by independent quadrature.

    coords: (3, 2) triangle vertices.  w_elem: optional (6, 2) velocity
    values at the P2 nodes of the element (for the convection forms).
    Returns a dict with mass, stiffness, divergence parts, p1 mass, and
    (if w given) convection and gradient-coupling blocks.
    """
    pts, wts = duffy_rule(n)
    v0 = coords[0]
    J = np.column_stack([coords[1] - v0, coords[2] - v0])
    det = float(np.linalg.det(J))
    Jinv_t = np.linalg.inv(J).T

    mass = np.zeros((6, 6))
    stiff = np.zeros((6, 6))
    bx = np.zeros((3, 6))
    by = np.zeros((3, 6))
    p1m = np.zeros((3, 3))
    conv = np.zeros((6, 6))
    gblocks = np.zeros((2, 2, 6, 6))

    for (xi, eta), wq in zip(pts, wts):
        phi = p2_values(xi, eta)
        grad = p2_gradients(xi, eta) @ Jinv_t.T
        psi = p1_values(xi, eta)
        mass += wq * det * np.outer(phi, phi)
        stiff += wq * det * (grad @ grad.T)
        bx += wq * det * np.outer(psi, grad[:, 0])
        by += wq * det * np.outer(psi, grad[:, 1])
        p1m += wq * det * np.outer(psi, psi)
        if w_elem is not None:
            wval = w_elem.T @ phi          # (2,)
            dw = w_elem.T @ grad           # (2, 2): dw[c, d] = d w_c / d x_d
            conv += wq * det * np.outer(phi, grad @ wval)
            for c in range(2):
                for d in range(2):
                    gblocks[c, d] += wq * det * dw[c, d] * np.outer(phi, phi)

    out = {"mass": mass, "stiffness": stiff, "bx": bx, "by": by, "p1_mass": p1m}
    if w_elem is not None:
        out["convection"] = conv
        out["gradient"] = gblocks
    return out


def assemble_oracle(space, w=None):
    """Globally assembled oracle matrices on a (small) space."""
    n_s, n_p = space.num_scalar, space.num_pressure
    mass = np.zeros((n_s, n_s))
    stiff = np.zeros((n_s, n_s))
    bx = np.zeros((n_p, n_s))
    by = np.zeros((n_p, n_s))
    p1m = np.zeros((n_p, n_p))
    conv = np.zeros((n_s, n_s))
    gblocks = np.zeros((2, 2, n_s, n_s))
    mesh = space.mesh
    for e in range(mesh.num_triangles):
        coords = mesh.vertices[mesh.triangles[e]]
        sdofs = space.tri_scalar[e]
        pdofs = space.tri_pressure[e]
        w_elem = None
        if w is not None:
            w_elem = np.column_stack([w[:n_s][sdofs], w[n_s:][sdofs]])
        loc = element_oracle(coords, w_elem)
        mass[np.ix_(sdofs, sdofs)] += loc["mass"]
        stiff[np.ix_(sdofs, sdofs)] += loc["stiffness"]
        bx[np.ix_(pdofs, sdofs)] += loc["bx"]
        by[np.ix_(pdofs, sdofs)] += loc["by"]
        p1m[np.ix_(pdofs, pdofs)] += loc["p1_mass"]
        if w is not None:
            conv[np.ix_(sdofs, sdofs)] += loc["convection"]
            for c in range(2):
                for d in range(2):
                    gblocks[c, d][np.ix_(sdofs, sdofs)] += loc["gradient"][c, d]
    out = {
        "mass": np.kron(np.eye(2), mass),
        "stiffness": np.kron(np.eye(2), stiff),
        "divergence": np.hstack([bx, by]),
        "pressure_mass": p1m,
    }
    if w is not None:
        out["convection"] = np.kron(np.eye(2), conv)
        out["gradient"] = np.block([[gblocks[0, 0], gblocks[0, 1]],
                                    [gblocks[1, 0], gblocks[1, 1]]])
    return out


def smoothing_ratio(states, forcing, c0, eigenvalues, s, ell, window=None):
    """Two-sided ratio of the smoothing estimate of level ``ell`` for one
    stored trajectory: ``states`` and ``forcing`` are the nodal states and
    the interval forcing averages as grid functions, ``c0`` the initial
    value (see ``spectral_stokes.stability_reports``)."""
    from cnflow.spectral_stokes import vs_row_norm
    from cnflow.temporal_ops import average, time_derivative, weighted_temporal_norm

    def norm(f, alpha, p, order):
        return weighted_temporal_norm(f, alpha, p, vs_row_norm(eigenvalues, order), window)

    kmax = states.mesh.k_max
    a_ell, a_lower = 0.5 * ell, 0.5 * (ell - 1)
    avg, dt = average(states), time_derivative(states)
    lhs = norm(states, a_ell, np.inf, s) + norm(avg, a_ell, 2, s + 1) + norm(dt, a_ell, 2, s - 1)
    rhs = kmax ** a_ell * vs_row_norm(eigenvalues, s)(c0) + norm(forcing, a_ell, 2, s - 1)
    if ell >= 1:
        rhs = rhs + norm(avg, a_lower, 2, s) + kmax * norm(dt, a_lower, 2, s)
    return lhs / rhs


def stored_trial(mesh, eigenvalues, c0, forcing_values, n0=0):
    """The Crank-Nicolson states of one trial by a ``cn_step_spectral`` loop
    from node ``n0``, as a grid function; earlier nodes hold ``c0``."""
    from cnflow.spectral_stokes import SpectralField, cn_step_spectral
    from cnflow.temporal_ops import GridFunctionCG1

    states = [SpectralField(eigenvalues, c0)] * (n0 + 1)
    for n in range(n0, mesh.num_intervals):
        states.append(cn_step_spectral(states[-1], mesh.steps[n], forcing_values[n]))
    return GridFunctionCG1(mesh, [f.coefficients for f in states])


def _random_trial(rng, lam, s):
    """One trial's data for ``s``, drawn from ``rng`` as ``spectral_stokes._trial_normals``
    draws it and scaled by ``spectral_stokes._scaled_trial``: ``(c0, b)``."""
    from cnflow.spectral_stokes import _scaled_trial

    return _scaled_trial(rng.standard_normal(lam.size), rng.standard_normal((3, lam.size)),
                         lam, s)


def stability_ratios_oracle(s, ell, n0, mesh, trial_count, rng_seed, eigenvalues):
    """The ratios of ``spectral_stokes.stability_reports`` for one check on one
    mesh, trial by trial, each trajectory stored in full: each ``s`` scales its own
    data and evolves it alone."""
    from cnflow.spectral_stokes import _time_factors, _trial_forcing
    from cnflow.temporal_ops import GridFunctionDG0

    lam = np.asarray(eigenvalues, dtype=float)
    phi = _time_factors(mesh)
    ratios = []
    for t in range(trial_count):
        c0, b = _random_trial(np.random.default_rng([rng_seed, t]), lam, s)
        forcing = GridFunctionDG0(mesh, _trial_forcing(phi, b))
        states = stored_trial(mesh, lam, c0, forcing.values, n0)
        ratios.append(smoothing_ratio(states, forcing, c0, lam, s, ell,
                                      (n0, mesh.num_intervals)))
    return np.array(ratios)


def trial_rows_oracle(s, lower_level, n0, mesh, normals, eigenvalues):
    """The rows of ``spectral_stokes._trial_rows`` for the trial ``normals``, trial by
    trial, each trajectory of the data of ``s`` stored in full: the V^s norm per node,
    then per interval the V^{s+1} norm of the average, the V^{s-1} norms of d/dt and of
    the forcing and, if ``lower_level``, the V^s norms of the average and of d/dt, zero
    on the intervals before ``n0``.  Each row is ``(N + 1, trials)`` or ``(N, trials)``."""
    from cnflow.spectral_stokes import _scaled_trial, _time_factors, _trial_forcing, vs_row_norm
    from cnflow.temporal_ops import average, time_derivative

    lam = np.asarray(eigenvalues, dtype=float)
    phi = _time_factors(mesh)
    trials = []
    for z0, zb in zip(normals[0], np.swapaxes(normals[1], 0, 1)):
        c0, b = _scaled_trial(z0, zb, lam, s)
        forcing = _trial_forcing(phi, b)
        states = stored_trial(mesh, lam, c0, forcing, n0)
        avg, dt = average(states).values, time_derivative(states).values
        fields = [(avg, s + 1), (dt, s - 1), (forcing, s - 1)]
        if lower_level:
            fields += [(avg, s), (dt, s)]
        rows = [vs_row_norm(lam, order)(values) for values, order in fields]
        for row in rows:
            row[:n0] = 0.0
        trials.append([vs_row_norm(lam, s)(states.values), *rows])
    return [np.array(row).T for row in zip(*trials)]
