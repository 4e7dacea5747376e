import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnflow.cli import smoothing_drift
from cnflow.spectral_stokes import (
    SpectralField,
    cn_step_spectral,
    default_spectrum,
    euler_smoothing_rate,
    evolve_cn,
    ie_step_spectral,
    sharp_initial_field,
    stability_reports,
    verify_discrete_stability,
    verify_smoothing_stability,
    vs_norm,
    vs_row_norm,
)
from cnflow.temporal_ops import GridFunctionCG1, GridFunctionDG0, average
from cnflow.time_mesh import TimeMesh, build_alternating_mesh, build_uniform_mesh

from oracles import smoothing_ratio, stability_ratios_oracle, stored_trial, trial_rows_oracle


def field(lam, c):
    return SpectralField(np.asarray(lam, dtype=float), np.asarray(c, dtype=float))


def evolved(mesh, lam, c0, rk):
    """The nodal states of ``evolve_cn`` from ``c0`` with forcing rows ``rk``,
    copied by an observer into a grid function."""
    states = [np.asarray(c0, dtype=float)]
    evolve_cn(mesh, lam, c0, lambda n: rk[n], 0,
              lambda n, prev, new, f: states.append(new.copy()))
    return GridFunctionCG1(mesh, states)


def test_vs_norm_single_modes():
    f = field([1.0, 4.0], [1.0, 0.0])
    assert vs_norm(f, 2) == pytest.approx(1.0, rel=1e-15)
    g = field([1.0, 4.0], [0.0, 1.0])
    assert vs_norm(g, 1) == pytest.approx(2.0, rel=1e-15)


def test_vs_norm_sum_oracle():
    # direct summation: sqrt(sum_j j^-4) over 100 modes
    j = np.arange(1, 101, dtype=float)
    f = field(j ** 2, j ** -2.0)
    assert vs_norm(f, 0) == pytest.approx(1.0403474925929668, rel=1e-13)


def test_vs_row_norm_is_vs_norm_per_row():
    for shape in ((5, 12), (50, 256)):
        lam = default_spectrum(shape[1])
        rows = np.random.default_rng(2).standard_normal(shape)
        for s in (-1, 0, 1, 2):
            got = vs_row_norm(lam, s)(rows)
            assert got.shape == shape[:1]
            assert np.array_equal(got, [vs_norm(field(lam, c), s) for c in rows])


def test_field_validation():
    with pytest.raises(ValueError):
        field([1.0, 1.0], [0.0, 0.0])
    with pytest.raises(ValueError):
        field([-1.0, 2.0], [0.0, 0.0])
    with pytest.raises(ValueError):
        field([1.0, 2.0], [0.0])
    for lam in ([1.0, np.inf], [np.nan, 2.0], [4.0, 1.0]):
        with pytest.raises(ValueError, match="finite, positive, strictly ascending"):
            field(lam, [0.0, 0.0])


def test_cn_step_zero_amplification():
    # lambda k / 2 = 1 kills the mode in one step
    f = field([1.0], [1.0])
    out = cn_step_spectral(f, 2.0, field([1.0], [0.0]))
    assert out.coefficients[0] == 0.0
    g = field([2.0], [1.0])
    assert cn_step_spectral(g, 1.0, field([2.0], [0.0])).coefficients[0] == 0.0


def test_cn_constant_forcing_fixed_point():
    # u' + u = 1 with u(0) = 1 stays at the fixed point for any k
    f = field([1.0], [1.0])
    one = field([1.0], [1.0])
    state = f
    for _ in range(20):
        state = cn_step_spectral(state, 0.05, one)
    assert state.coefficients[0] == pytest.approx(1.0, rel=1e-14)


def test_cn_matches_exact_ode_in_the_limit():
    # u' + u = 1, u(0) = 0: u(T) = 1 - exp(-T)
    T = 1.0
    errs = []
    for N in (16, 32):
        state = field([1.0], [0.0])
        one = field([1.0], [1.0])
        for _ in range(N):
            state = cn_step_spectral(state, T / N, one)
        errs.append(abs(state.coefficients[0] - (1.0 - np.exp(-T))))
    assert 3.6 <= errs[0] / errs[1] <= 4.4


def test_ie_step_values():
    f = field([1.0], [1.0])
    assert ie_step_spectral(f, 1.0, field([1.0], [0.0])).coefficients[0] == 0.5
    g = field([2.0], [3.0])
    assert ie_step_spectral(g, 0.5, field([2.0], [0.0])).coefficients[0] == 1.5


def test_ie_l_stability_probe():
    f = field([1e8], [1.0])
    out = ie_step_spectral(f, 1.0, field([1e8], [0.0]))
    assert abs(out.coefficients[0]) <= 2e-8


def test_step_rejects_nonpositive_k():
    f = field([1.0], [1.0])
    with pytest.raises(ValueError):
        cn_step_spectral(f, 0.0, f)
    with pytest.raises(ValueError):
        ie_step_spectral(f, -1.0, f)


def test_cn_amplification_identities_exact():
    lam = default_spectrum(64)
    rng = np.random.default_rng(5)
    c0 = rng.standard_normal(64)
    zero = np.zeros(64)
    for k in (1e-3, 0.1, 1.0, 10.0):
        out = cn_step_spectral(field(lam, c0), k, field(lam, zero))
        expected = c0 * (1.0 - 0.5 * lam * k) / (1.0 + 0.5 * lam * k)
        assert np.allclose(out.coefficients, expected, rtol=1e-14, atol=0)
        out_ie = ie_step_spectral(field(lam, c0), k, field(lam, zero))
        assert np.allclose(out_ie.coefficients, c0 / (1.0 + lam * k), rtol=1e-14, atol=0)
        # contraction per mode
        assert np.all(np.abs(out.coefficients) <= np.abs(c0))


def test_unforced_decay_monotone_in_every_order():
    lam = default_spectrum(64)
    rng = np.random.default_rng(9)
    c = rng.standard_normal(64)
    mesh = build_uniform_mesh(1.0, 12)
    states = evolved(mesh, lam, c, np.zeros((12, 64)))
    for s in range(-2, 5):
        norms = [vs_norm(field(lam, v), s) for v in states.values]
        assert np.all(np.diff(norms) <= 1e-13)


@settings(max_examples=40, deadline=None)
@given(steps=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=12),
       modes=st.integers(1, 20), start_frac=st.floats(0.0, 1.0, exclude_max=True),
       seed=st.integers(0, 2**32 - 1))
def test_evolve_cn_is_the_cn_step_loop_bitwise(steps, modes, start_frac, seed):
    # one coefficient vector: the states handed to the observer are the
    # cn_step_spectral loop, bit for bit
    mesh = TimeMesh(np.concatenate([[0.0], np.cumsum(steps)]))
    N = mesh.num_intervals
    start = int(start_frac * N)
    lam = default_spectrum(modes)
    rng = np.random.default_rng(seed)
    c0, rk = rng.standard_normal(modes), rng.standard_normal((N, modes))
    states = [field(lam, c0)] * (start + 1)
    for n in range(start, N):
        states.append(cn_step_spectral(states[-1], mesh.steps[n], rk[n]))
    expected = np.array([f.coefficients for f in states])
    seen = []
    evolve_cn(mesh, lam, c0, lambda n: rk[n], start,
              lambda n, prev, new, f: seen.append((prev.copy(), new.copy())))
    assert np.array([new for _, new in seen]).tobytes() == expected[start + 1:].tobytes()
    assert np.array([prev for prev, _ in seen]).tobytes() == expected[start:-1].tobytes()


@settings(max_examples=25, deadline=None)
@given(steps=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=10),
       trials=st.integers(1, 4), modes=st.integers(1, 12),
       start_frac=st.floats(0.0, 1.0, exclude_max=True), seed=st.integers(0, 2**32 - 1))
def test_evolve_cn_streams_a_trial_block_bitwise(steps, trials, modes, start_frac, seed):
    # a (trials, modes) block with forcing formed per interval, handed to an
    # observer: each row is the cn_step_spectral loop of its trial, bit for bit
    mesh = TimeMesh(np.concatenate([[0.0], np.cumsum(steps)]))
    N = mesh.num_intervals
    start = int(start_frac * N)
    lam = default_spectrum(modes)
    rng = np.random.default_rng(seed)
    c0, rk = rng.standard_normal((trials, modes)), rng.standard_normal((N, trials, modes))
    seen = []

    def observer(n, prev, new, f):
        seen.append((n, prev.copy(), new.copy(), f.copy()))

    assert evolve_cn(mesh, lam, c0, lambda n: rk[n], start, observer) is None
    assert [n for n, *_ in seen] == list(range(start, N))
    for t in range(trials):
        want = stored_trial(mesh, lam, c0[t], rk[:, t], start).values
        assert np.array([new[t] for _, _, new, _ in seen]).tobytes() == want[start + 1:].tobytes()
        assert np.array([prev[t] for _, prev, _, _ in seen]).tobytes() == want[start:-1].tobytes()
    assert all(np.array_equal(f, rk[n]) for n, _, _, f in seen)


def test_evolve_cn_rejects_bad_start_and_forcing():
    # start = -1 used to read an uninitialised row instead of c0
    lam = default_spectrum(4)
    mesh = build_uniform_mesh(1.0, 8)
    c0 = np.ones(4)
    seen = []

    def observer(n, prev, new, f):
        seen.append(n)

    def zero(n):
        return np.zeros(4)

    for start in (-1, 8, 9):
        with pytest.raises(ValueError, match="start index"):
            evolve_cn(mesh, lam, c0, zero, start, observer)
    # a forcing row narrower or wider than the state cannot be stepped
    for width in (3, 5):
        with pytest.raises(ValueError):
            evolve_cn(mesh, lam, c0, lambda n: np.zeros(width), 0, observer)
    # a scalar or 1-vector would broadcast
    for bad_c0 in (1.0, np.ones(1), np.ones(5), np.ones((2, 2, 4))):
        with pytest.raises(ValueError, match="initial value"):
            evolve_cn(mesh, lam, bad_c0, zero, 0, observer)
    seen.clear()
    evolve_cn(mesh, lam, c0, zero, 7, observer)
    assert seen == [7]


def test_evolve_cn_rejects_a_forcing_row_that_broadcasts():
    # a (1,) row on 4 modes, a scalar, or one row for a whole trial block was
    # applied to every mode and trial without error
    lam = default_spectrum(4)
    mesh = build_uniform_mesh(1.0, 4)
    for c0, row in ((np.ones(4), np.ones(1)), (np.ones(4), 0.0),
                    (np.ones((3, 4)), np.ones(4)), (np.ones((3, 4)), np.ones((1, 4)))):
        with pytest.raises(ValueError, match="forcing on interval 2"):
            evolve_cn(mesh, lam, c0, lambda n: row if n == 2 else np.zeros_like(c0), 0,
                      lambda *seen: None)


@pytest.mark.parametrize("lam", [[1.0, np.nan, 9.0, 16.0], [3.0, 2.0, 1.0, -5.0],
                                 [0.0, 1.0, 4.0, 9.0], [1.0, 4.0, 4.0, 9.0],
                                 [1.0, 4.0, 9.0, np.inf]])
def test_evolve_cn_rejects_a_bad_spectrum(lam):
    # a NaN eigenvalue ran to a NaN state, and [3, 2, 1, -5] grew a unit mode
    # to 352.6 in 4 steps
    with pytest.raises(ValueError, match="eigenvalues"):
        evolve_cn(build_uniform_mesh(1.0, 4), lam, np.ones(4), lambda n: np.zeros(4), 0,
                  lambda *seen: None)


def test_ie_monotone_decay():
    lam = default_spectrum(32)
    rng = np.random.default_rng(2)
    state = field(lam, rng.standard_normal(32))
    zero = field(lam, np.zeros(32))
    for s in (-1, 0, 1, 2):
        prev = vs_norm(state, s)
        cur = state
        for _ in range(5):
            cur = ie_step_spectral(cur, 0.05, zero)
            now = vs_norm(cur, s)
            assert now <= prev + 1e-15
            prev = now


def test_averaged_equation_residual():
    # the trajectory satisfies, per mode, the averaged form
    # (c^n - c^{n-1}) / k + lam (c^n + c^{n-1}) / 2 = f^n exactly
    lam = default_spectrum(48)
    mesh = build_uniform_mesh(1.0, 9)
    rng = np.random.default_rng(21)
    rk = rng.standard_normal((9, 48))
    v = evolved(mesh, lam, rng.standard_normal(48), rk).values
    for n in range(9):
        k = mesh.steps[n]
        resid = (v[n + 1] - v[n]) / k + lam * 0.5 * (v[n + 1] + v[n]) - rk[n]
        scale = np.abs(rk[n]) + np.abs(v[n]) + 1.0
        assert np.max(np.abs(resid) / scale) < 1e-12


def test_discrete_stability_pure_decay_trial():
    # the unit initial value alone is the right side; the ratio must be
    # finite and moderate for pure decay
    lam = np.array([1.0])
    mesh = build_uniform_mesh(1.0, 8)
    states = evolved(mesh, lam, np.array([1.0]), np.zeros((8, 1)))
    ratio = smoothing_ratio(states, GridFunctionDG0(mesh, np.zeros((8, 1))),
                            np.array([1.0]), lam, 0, 0)
    assert np.isfinite(ratio) and ratio < 4.0


def test_discrete_stability_report():
    mesh = build_uniform_mesh(1.0, 16)
    rep = verify_discrete_stability(1, mesh, trial_count=8, rng_seed=3)
    assert np.isfinite(rep.max_ratio)
    assert rep.max_ratio == pytest.approx(np.max(rep.ratios), rel=1e-15)
    # same trials at a different regularity level are also finite
    rep2 = verify_discrete_stability(0, mesh, trial_count=8, rng_seed=3)
    assert np.isfinite(rep2.max_ratio)
    assert "discrete-stability" in rep.csv_row()


def test_discrete_stability_refinement_drift():
    ratios = []
    for N in (16, 32):
        rep = verify_discrete_stability(1, build_uniform_mesh(1.0, N),
                                        trial_count=12, rng_seed=42)
        ratios.append(rep.max_ratio)
    assert max(ratios) / min(ratios) < 1.10


def test_smoothing_stability_basic():
    mesh = build_uniform_mesh(1.0, 32)
    rep = verify_smoothing_stability(1, 1, 0, mesh, trial_count=6, rng_seed=1)
    assert np.isfinite(rep.max_ratio)
    with pytest.raises(ValueError):
        verify_smoothing_stability(1, 0, 0, mesh)
    with pytest.raises(ValueError):
        verify_smoothing_stability(1, 1, 32, mesh)


def test_smoothing_stability_bounds_fresh_data():
    # ratio from one seed bounds trials from another seed within slack
    mesh = build_uniform_mesh(1.0, 64)
    base = verify_smoothing_stability(1, 2, 0, mesh, trial_count=25, rng_seed=0)
    other = verify_smoothing_stability(1, 2, 0, mesh, trial_count=25, rng_seed=99)
    assert other.max_ratio <= 1.25 * base.max_ratio


def test_smoothing_single_mode_ratio_finite():
    # one decaying mode, no forcing: the two-sided ratio is finite and modest
    lam = np.array([1.0])
    mesh = build_uniform_mesh(1.0, 16)
    states = evolved(mesh, lam, np.array([1.0]), np.zeros((16, 1)))
    ratio = smoothing_ratio(states, GridFunctionDG0(mesh, np.zeros((16, 1))),
                            np.array([1.0]), lam, 1, 1)
    assert np.isfinite(ratio)
    assert ratio < 4.0


def test_smoothing_coarse_ratio_bounds_finer_forced_trials():
    # with zero initial data and random forcing, the coarse-mesh constant
    # bounds the finer-mesh trials up to modest slack
    from cnflow.spectral_stokes import _time_factors, _trial_forcing
    from oracles import _random_trial

    lam = default_spectrum(96)
    coarse = verify_smoothing_stability(1, 1, 0, build_uniform_mesh(1.0, 64), trial_count=20,
                                        rng_seed=5, eigenvalues=lam)
    mesh = build_uniform_mesh(1.0, 128)
    phi = _time_factors(mesh)
    zero = np.zeros(lam.size)
    worst = 0.0
    for t in range(20):
        _, b = _random_trial(np.random.default_rng([5, t]), lam, 1)
        forcing = _trial_forcing(phi, b)
        states = stored_trial(mesh, lam, zero, forcing)
        worst = max(worst, smoothing_ratio(states, GridFunctionDG0(mesh, forcing), zero,
                                           lam, 1, 1))
    assert worst <= 1.15 * coarse.max_ratio


@pytest.mark.parametrize("N", [16, 256])
@pytest.mark.parametrize("s", [0, 1, 2])
def test_trial_forcing_is_the_gauss_rule_of_the_forcing(N, s):
    # the averaged time factors, combined per trial, against the 3-point
    # Gauss rule applied to the whole forcing at every point
    from cnflow.spectral_stokes import _time_factors, _trial_forcing
    from cnflow.temporal_ops import gauss_rule
    from oracles import _random_trial

    mesh = build_uniform_mesh(0.7, N)
    lam = default_spectrum()
    _, b = _random_trial(np.random.default_rng([3, N, s]), lam, s)
    x, w = gauss_rule(3)
    t = (0.5 * (mesh.nodes[:-1] + mesh.nodes[1:])[:, None]
         + 0.5 * mesh.steps[:, None] * x)[..., None]
    values = (b[0] + b[1] * np.cos(np.pi * t / mesh.T)
              + b[2] * np.sin(2.0 * np.pi * t / mesh.T))
    want = 0.5 * np.einsum("k,nkm->nm", w, values)
    got = _trial_forcing(_time_factors(mesh), b)
    # relative to the size of each mode's coefficients: the forcing itself
    # may cancel to near zero
    scale = np.abs(b).sum(axis=0)
    assert got.shape == (N, lam.size)
    assert np.max(np.abs(got - want) / scale) <= 1e-14


def test_stability_ratios_average_the_forcing_once(monkeypatch):
    from cnflow import spectral_stokes
    from cnflow.temporal_ops import GridFunctionCG1, GridFunctionDG0

    averaged = []

    def spy(u, *args, **kwargs):
        if not isinstance(u, (GridFunctionCG1, GridFunctionDG0)):
            averaged.append(u)
        return average(u, *args, **kwargs)

    monkeypatch.setattr(spectral_stokes, "average", spy)
    verify_smoothing_stability(1, 1, 2, build_uniform_mesh(1.0, 32), trial_count=6)
    assert len(averaged) == 1


def test_stability_ratios_build_their_norms_once(monkeypatch):
    # the weights of the V^-1, V^0 and V^1 norms, once per evolution
    from cnflow import spectral_stokes
    from cnflow.spectral_stokes import _order_weights

    built = []

    def spy(eigenvalues):
        built.append(eigenvalues.size)
        return _order_weights(eigenvalues)

    monkeypatch.setattr(spectral_stokes, "_order_weights", spy)
    stepped = spy_steps(monkeypatch)
    verify_smoothing_stability(1, 1, 2, build_uniform_mesh(1.0, 32), trial_count=6)
    # the (1,1), (1,2) and (2,1) checks share one evolution per rung, as do (2,0) and (1,0)
    checks = [(1, 1, 0), (1, 2, 0), (2, 1, 0), (2, 0, 0), (1, 0, 0)]
    ladders = [[build_uniform_mesh(1.0, N) for N in (8, 16)] for _ in checks]
    stability_reports(checks, ladders, 3, 0, default_spectrum(8))
    assert built == [256, 8, 8, 8, 8]
    assert len(stepped) == len(built)


@pytest.mark.parametrize("n0", [0, 3])
@pytest.mark.parametrize("lower_level", [False, True])
@pytest.mark.parametrize("s", [0, 1, 2])
def test_trial_rows_match_the_stored_oracle(s, lower_level, n0):
    # each interval's squares weighed by BLAS products, against vs_row_norm on the
    # stored trajectory of each trial: one set of rows serves every s
    from cnflow.spectral_stokes import _trial_normals, _trial_rows

    mesh = build_alternating_mesh(1.0, 1.0 / 24, (0.5, 1.5))
    lam = default_spectrum()
    normals = _trial_normals(11, 7, lam.size)
    got = _trial_rows(lower_level, n0, mesh, normals, lam)
    want = trial_rows_oracle(s, lower_level, n0, mesh, normals, lam)
    assert [row.shape for row in got] == [row.shape for row in want]
    assert len(got) == (6 if lower_level else 4)
    for g, w in zip(got, want):
        assert np.all(np.abs(g - w) <= 1e-14 * np.abs(w))


def test_stability_ratios_step_their_trials_once(monkeypatch):
    # the trials of one verification are one block: one evolution, so the
    # step sizes and their factor rows are formed once, not once per trial
    from cnflow import spectral_stokes

    blocks = []

    def spy(mesh, eigenvalues, c0, *args, **kwargs):
        blocks.append(np.shape(c0))
        return evolve_cn(mesh, eigenvalues, c0, *args, **kwargs)

    monkeypatch.setattr(spectral_stokes, "evolve_cn", spy)
    verify_smoothing_stability(1, 1, 2, build_alternating_mesh(1.0, 1.0 / 32, (0.5, 1.5)),
                               trial_count=6)
    verify_discrete_stability(0, build_uniform_mesh(1.0, 16), trial_count=4)
    assert blocks == [(6, 256), (4, 256)]


def spy_steps(monkeypatch):
    """Patch ``evolve_cn`` in ``spectral_stokes``; the returned list gets the
    shape of each evolution's initial block."""
    from cnflow import spectral_stokes

    stepped = []

    def spy(mesh, eigenvalues, c0, *args, **kwargs):
        stepped.append(np.shape(c0))
        return evolve_cn(mesh, eigenvalues, c0, *args, **kwargs)

    monkeypatch.setattr(spectral_stokes, "evolve_cn", spy)
    return stepped


def test_smoothing_levels_share_one_evolution(monkeypatch):
    # the (1,1) and (1,2) pairs of `cnflow verify spectral-smoothing` build
    # their meshes separately; both levels compose the rows of one evolution
    stepped = spy_steps(monkeypatch)
    checks = [(1, 1, 0), (1, 2, 0)]
    shared = stability_reports(checks, [[build_uniform_mesh(1.0, 32)] for _ in checks], 6)
    assert len(stepped) == 1
    for check, [report] in zip(checks, shared):
        [[fresh]] = stability_reports([check], [[build_uniform_mesh(1.0, 32)]], 6)
        assert report.ratios.tobytes() == fresh.ratios.tobytes()
        assert report.csv_row() == fresh.csv_row()
    assert len(stepped) == 3


@pytest.mark.parametrize("ladders", [
    [[build_uniform_mesh(1.0, 16)], [build_uniform_mesh(1.0, 32)]],
    [[build_uniform_mesh(1.0, 16)], [build_uniform_mesh(2.0, 16)]],
    [[build_uniform_mesh(1.0, 16)], [build_uniform_mesh(1.0, 16), build_uniform_mesh(1.0, 32)]]])
def test_checks_that_share_trials_need_equal_meshes(monkeypatch, ladders):
    # checks on unequal ladders share no evolution: each steps its own rungs
    # and reports the ratios it reports alone
    stepped = spy_steps(monkeypatch)
    checks = [(1, 1, 0), (2, 2, 0)]
    reports = stability_reports(checks, ladders, 3, 0, default_spectrum(8))
    assert len(stepped) == sum(len(ladder) for ladder in ladders)
    for check, ladder, got in zip(checks, ladders, reports):
        alone = stability_reports([check], [ladder], 3, 0, default_spectrum(8))[0]
        assert [r.num_intervals for r in got] == [mesh.num_intervals for mesh in ladder]
        assert [r.ratios.tobytes() for r in got] == [r.ratios.tobytes() for r in alone]
        assert [r.csv_row() for r in got] == [r.csv_row() for r in alone]


def test_checks_of_another_group_step_on_their_own_meshes(monkeypatch):
    # another n0, the unweighted level or another ladder steps its own evolution;
    # another s on an equal ladder shares one
    stepped = spy_steps(monkeypatch)
    checks = [(1, 1, 0), (2, 1, 0), (1, 0, 0), (1, 1, 2), (1, 1, 0)]
    ladders = [[build_uniform_mesh(1.0, N)] for N in (8, 8, 24, 32, 16)]
    reports = stability_reports(checks, ladders, 3, 0, default_spectrum(8))
    assert len(stepped) == 4
    for check, [report], ladder in zip(checks, reports, ladders):
        [[alone]] = stability_reports([check], [ladder], 3, 0, default_spectrum(8))
        assert (report.s, report.ell, report.n0) == check
        assert report.num_intervals == ladder[0].num_intervals
        assert report.ratios.tobytes() == alone.ratios.tobytes()


@pytest.mark.parametrize("check", [
    lambda: verify_smoothing_stability(1, 0, 0, build_uniform_mesh(1.0, 8), trial_count=3),
    lambda: smoothing_drift(1, 0, trials=3)],
    ids=["verify_smoothing_stability", "smoothing_drift"])
def test_smoothing_checks_reject_level_zero(monkeypatch, check):
    stepped = spy_steps(monkeypatch)
    with pytest.raises(ValueError, match="smoothing level must be positive"):
        check()
    assert stepped == []


@pytest.mark.parametrize("seed, modes", [(0, 256), (23, 40)])
def test_trial_normals_scale_to_the_per_trial_draws_bitwise(seed, modes):
    from cnflow.spectral_stokes import _scaled_trial, _trial_normals
    from oracles import _random_trial

    lam = default_spectrum(modes)
    for s in (0, 1, 2):
        c0, b = _scaled_trial(*_trial_normals(seed, 7, modes), lam, s)
        assert c0.shape == (7, modes) and b.shape == (3, 7, modes)
        for t in range(7):
            want_c0, want_b = _random_trial(np.random.default_rng([seed, t]), lam, s)
            assert c0[t].tobytes() == want_c0.tobytes()
            assert b[:, t].tobytes() == want_b.tobytes()


def test_trial_normals_are_drawn_once_per_seed(monkeypatch):
    # the three `s` of `cnflow verify spectral-stability`, here on two meshes
    # each, seed each trial's generator once
    seeded = []

    def spy(seed):
        seeded.append(tuple(seed))
        return default_rng(seed)

    default_rng = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", spy)
    checks = [(s, 0, 0) for s in (0, 1, 2)]
    ladders = [[build_uniform_mesh(1.0, N) for N in (8, 16)] for _ in checks]
    reports = stability_reports(checks, ladders, trial_count=4, rng_seed=5)
    assert [len(r) for r in reports] == [2, 2, 2]
    assert seeded == [(5, t) for t in range(4)]


@pytest.mark.parametrize("n0", [0, 3])
@pytest.mark.parametrize("ell", [0, 1, 2])
@pytest.mark.parametrize("s", [0, 1, 2])
def test_streamed_ratios_match_the_stored_oracle(s, ell, n0):
    mesh = build_alternating_mesh(1.0, 1.0 / 24, (0.5, 1.5))
    lam = default_spectrum(40)
    [[report]] = stability_reports([(s, ell, n0)], [[mesh]], 5, 11, lam)
    got = report.ratios
    want = stability_ratios_oracle(s, ell, n0, mesh, 5, 11, lam)
    assert got.shape == (5,)
    assert np.allclose(got, want, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("ell, n0", [(0, 0), (1, 3)])
def test_every_s_reports_the_ratios_of_one_evolution(monkeypatch, ell, n0):
    # in the coordinates lam^(s/2) c the data of every s is the s = 0 data, so the
    # three s of one call share one evolution and report the same bits; each s of
    # the oracle scales and evolves its own data
    stepped = spy_steps(monkeypatch)
    mesh = build_alternating_mesh(1.0, 1.0 / 24, (0.5, 1.5))
    lam = default_spectrum(40)
    checks = [(s, ell, n0) for s in (0, 1, 2)]
    reports = [r for [r] in stability_reports(checks, [[mesh]] * 3, 5, 11, lam)]
    assert len(stepped) == 1
    assert [r.s for r in reports] == [0, 1, 2]
    assert len({r.ratios.tobytes() for r in reports}) == 1
    for s, report in zip((0, 1, 2), reports):
        want = stability_ratios_oracle(s, ell, n0, mesh, 5, 11, lam)
        assert np.all(np.abs(report.ratios - want) <= 1e-14 * want)


def test_stability_ratios_hold_no_trajectory():
    # one (N + 1, trials, modes) block here would be 25.7 MiB
    import tracemalloc

    mesh = build_uniform_mesh(1.0, 256)
    stability_reports([(1, 1, 0)], [[mesh]], 2, 0)  # warm the lazy imports and caches
    tracemalloc.start()
    try:
        stability_reports([(1, 1, 0)], [[mesh]], 50, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2 ** 20, f"peak {peak / 2 ** 20:.2f} MiB"


@pytest.mark.parametrize("bad", [{"trial_count": 0}, {"trial_count": -3},
                                 {"eigenvalues": [4.0, 1.0]}, {"eigenvalues": [1.0, 1.0]},
                                 {"eigenvalues": [0.0, 1.0]}, {"eigenvalues": [1.0, np.inf]},
                                 {"eigenvalues": [np.nan, 1.0]}, {"eigenvalues": []},
                                 {"eigenvalues": [[1.0, 4.0]]}])
def test_stability_checks_reject_bad_inputs(bad):
    # trial_count=0 used to fail inside numpy's max, and a descending
    # spectrum returned a ratio
    mesh = build_uniform_mesh(1.0, 8)
    name = next(iter(bad))
    with pytest.raises(ValueError, match=name):
        verify_discrete_stability(0, mesh, **bad)
    with pytest.raises(ValueError, match=name):
        verify_smoothing_stability(1, 1, 0, mesh, **bad)


def test_sharp_field_norms():
    lam = default_spectrum(256)
    f = sharp_initial_field(2, lam)
    # finite in V^2, much larger one order up (diverging with mode count)
    assert np.isfinite(vs_norm(f, 2))
    assert vs_norm(f, 3) > 10 * vs_norm(f, 2)


@pytest.mark.parametrize("r,s,s0,expected,tol", [
    (2, 4, 2, -1.0, 0.2),
    (2, 3, 2, -0.5, 0.2),
    (0, 2, 2, -1.0, 0.2),
    (2, 2, 2, 0.0, 0.1),
])
def test_euler_smoothing_rates(r, s, s0, expected, tol):
    k_list = [0.02 * 0.5 ** i for i in range(8)]
    fit = euler_smoothing_rate(r, s, s0, k_list)
    assert abs(fit.slope - expected) <= tol


def test_euler_smoothing_rate_against_direct_oracle():
    # closed-form per-mode evolution, summed directly
    r, s, s0 = 2, 4, 2
    n0 = 2 + s0 - r
    lam = default_spectrum(256)
    j = np.arange(1, 257, dtype=float)
    c = j ** (-r - 0.6)
    k_list = [0.02 * 0.5 ** i for i in range(8)]
    direct = []
    for k in k_list:
        d = c * (np.exp(-lam * n0 * k) - (1.0 + lam * k) ** (-n0))
        direct.append(np.sqrt(np.sum(lam ** s * d * d)))
    fit = euler_smoothing_rate(r, s, s0, k_list)
    assert np.allclose(fit.errors, direct, rtol=1e-12)


def test_euler_smoothing_rate_validation():
    with pytest.raises(ValueError):
        euler_smoothing_rate(3, 2, 2, [0.1, 0.05])
    with pytest.raises(ValueError):
        euler_smoothing_rate(2, 2, 3, [0.1, 0.05])
    with pytest.raises(ValueError):
        euler_smoothing_rate(2, 2, 2, [])
