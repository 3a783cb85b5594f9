import math
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import brentq
from scipy.special import beta as beta_fn
from scipy.special import betainc

from graphwave import mesh, starwaves
from graphwave.errors import ConvergenceError, DomainError
from graphwave.graphs import StarGraphSpec, make_star
from graphwave.mesh import vertex_flux_defect
from graphwave.starwaves import (
    ClosedFormWave,
    evaluate_wave,
    h_integral,
    mass_curve,
    monotone_window,
    profile_f,
    solve_omega_for_mass,
)

# frozen closed-form values
R_351_1 = 3.1981263793344055          # 1.5 * sqrt(3) * arccos(1/3)
ACOS_THIRD = 1.2309594173407747


def test_profile_peak_values():
    assert profile_f(0.0, 5.0, 1.0) == pytest.approx(3.0 ** 0.25, rel=1e-14)
    assert profile_f(0.0, 5.0, 4.0) == pytest.approx(12.0 ** 0.25, rel=1e-14)


def test_profile_even_and_monotone():
    x = np.linspace(0.0, 30.0, 400)
    f = profile_f(x, 6.0, 0.5)
    assert np.all(np.diff(f) < 0)
    np.testing.assert_allclose(profile_f(-x, 6.0, 0.5), f)
    assert f[-1] < 1e-8
    with pytest.raises(DomainError):
        profile_f(0.0, 0.5, 1.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("omega", [1e308, 5e307])
def test_profile_refuses_an_omega_whose_peak_overflows(omega):
    # it returned [inf, nan] with a RuntimeWarning; ClosedFormWave shares the check
    for make in (lambda: profile_f([0.0, 0.5], 5.0, omega),
                 lambda: ClosedFormWave(3, 1.0, 5.0, omega)):
        with pytest.raises(DomainError, match="peak value"):
            make()


def test_wave_invariants():
    w = ClosedFormWave(3, 1.0, 5.0, 1.0, 0)
    assert w.a_j == pytest.approx(math.atanh(1.0 / 3.0), rel=1e-14)
    assert w.shift == pytest.approx(w.a_j / 2.0, rel=1e-14)  # k = 2 at p=5, omega=1
    with pytest.raises(DomainError, match="below existence threshold"):
        ClosedFormWave(3, 1.0, 5.0, 1.0, 1)  # threshold gamma^2/(N-2j)^2 = 1
    with pytest.raises(DomainError):
        ClosedFormWave(3, 1.0, 5.0, 1.0, 2)
    with pytest.raises(DomainError):
        ClosedFormWave(1, 1.0, 5.0, 1.0, 0)


def test_wave_vertex_continuity():
    w = ClosedFormWave(4, 1.0, 6.0, 1.0, 1)
    vertex_vals = [w.edge_values(k, np.array([0.0]))[0] for k in range(4)]
    np.testing.assert_allclose(vertex_vals, vertex_vals[0], rtol=1e-14)


def test_evaluate_wave_needs_matching_star(disc_h01):
    w = ClosedFormWave(4, 1.0, 5.0, 1.0, 0)
    with pytest.raises(DomainError, match="star graph with 4 edges"):
        evaluate_wave(w, disc_h01)


def test_h_integral_p5_is_arccos():
    assert abs(h_integral(0.0, 5.0) - math.pi / 2.0) <= 1e-10
    assert abs(h_integral(1.0 / 3.0, 5.0) - ACOS_THIRD) <= 1e-10


@pytest.mark.parametrize("p", [5.0, 6.0, 7.0, 9.0, 11.0])
def test_h_integral_against_incomplete_beta(p):
    # independent special-function route: h(x) = (1/2) B_t(1/2, e+1) tail
    e = (3.0 - p) / (p - 1.0)
    for x in (0.0, 0.2, 1.0 / 3.0, 0.8, 0.99):
        oracle = 0.5 * beta_fn(0.5, e + 1.0) * (1.0 - betainc(0.5, e + 1.0, x * x))
        assert abs(h_integral(x, p) - oracle) <= 1e-10


def test_h_integral_p5_is_arcsine_complement():
    # at p = 5 the integrand is (1 - t^2)^{-1/2}
    for x in np.linspace(0.0, 0.99999, 60):
        assert abs(h_integral(float(x), 5.0) - (math.pi / 2.0 - math.asin(x))) <= 1e-14


@pytest.mark.parametrize("p", [5.0, 5.5, 6.0, 7.0, 9.0, 15.0])
def test_h_integral_against_adaptive_quadrature(p):
    # the substitution t = sin(theta) leaves cos(theta)^{(5-p)/(p-1)}, whose
    # integrable endpoint singularity adaptive quadrature with extrapolation
    # resolves to about 1e-11
    beta = (5.0 - p) / (p - 1.0)
    for x in np.linspace(0.0, 0.99999, 25):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            ref, _ = quad(lambda th: math.cos(th) ** beta, math.asin(x), 0.5 * math.pi,
                          epsabs=1e-13, epsrel=1e-13, limit=200)
        assert abs(h_integral(float(x), p) - ref) <= 1e-10


def test_h_integral_monotone_and_domain():
    xs = np.linspace(0.0, 0.999, 40)
    vals = [h_integral(float(x), 7.0) for x in xs]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    # tail vanishes like (1-x)^{1/3} at p = 7
    assert h_integral(1.0 - 1e-6, 7.0) < 0.05
    for bad in (-0.1, 1.0, 1.5):
        with pytest.raises(DomainError):
            h_integral(bad, 7.0)


def test_mass_curve_values_and_threshold():
    assert mass_curve(3, 1.0, 5.0, 1.0) == pytest.approx(R_351_1, rel=1e-12)
    thr = 1.0 / 9.0
    assert mass_curve(3, 1.0, 5.0, thr * 1.0001) < 0.05
    with pytest.raises(DomainError):
        mass_curve(3, 1.0, 5.0, thr)


def test_solve_omega_roundtrip_and_small_mass_limit():
    c = mass_curve(3, 1.0, 5.0, 1.0)
    assert solve_omega_for_mass(3, 1.0, 5.0, c, (0.5, 2.0)) == pytest.approx(1.0, abs=1e-8)
    thr = 1.0 / 9.0
    w = solve_omega_for_mass(3, 1.0, 5.0, 1e-3, (thr * 1.0000001, thr * 1.2))
    assert thr < w < thr * 1.001
    with pytest.raises(DomainError, match="straddle"):
        solve_omega_for_mass(3, 1.0, 5.0, 100.0, (0.5, 2.0))
    # bracket spanning the p=6 peak is rejected as non-monotone
    with pytest.raises(DomainError, match="monotone"):
        solve_omega_for_mass(3, 1.0, 6.0, 2.0, (0.5, 30.0))


def brentq_root(n_edges, p, c, bracket):
    """The reference root: scipy's brentq at the tolerances the search stops at."""
    return brentq(lambda w: mass_curve(n_edges, 1.0, p, w) - c, *bracket,
                  xtol=1e-14, rtol=1e-12)


@pytest.mark.parametrize("n_edges", [3, 4, 5])
@pytest.mark.parametrize("p", [5.0, 6.0, 7.0, 10.0])
def test_solve_omega_matches_brentq(n_edges, p):
    thr, hi = monotone_window(n_edges, 1.0, p)
    # a bracket that ends just below the fold (at p = 5, the window's end)
    bracket = (1.01 * thr, (1.0 - 1e-4) * hi)
    for omega in np.geomspace(1.02 * thr, 0.97 * hi, 9):
        c = mass_curve(n_edges, 1.0, p, float(omega))
        root = solve_omega_for_mass(n_edges, 1.0, p, c, bracket)
        assert root == pytest.approx(brentq_root(n_edges, p, c, bracket), rel=1e-12)
        assert mass_curve(n_edges, 1.0, p, root) == pytest.approx(c, rel=1e-12)
    # near the threshold the mass is so steep in omega that a root good to
    # xtol + rtol omega reproduces c only to the mass the curve gains over
    # that distance
    bracket = (thr * (1.0 + 1e-7), 1.2 * thr)
    c = math.sqrt(mass_curve(n_edges, 1.0, p, bracket[0]) * mass_curve(n_edges, 1.0, p, bracket[1]))
    root = solve_omega_for_mass(n_edges, 1.0, p, c, bracket)
    assert root == pytest.approx(brentq_root(n_edges, p, c, bracket), rel=1e-12)
    tol = 1e-14 + 1e-12 * root
    assert mass_curve(n_edges, 1.0, p, root - tol) <= c <= mass_curve(n_edges, 1.0, p, root + tol)


@pytest.mark.parametrize("c, bracket, match", [
    (2.0, (1.2, 0.5), "threshold < lo < hi"),
    (2.0, (math.nan, 1.2), "threshold < lo < hi"),
    (math.nan, (0.5, 1.2), "straddle"),
])
def test_solve_omega_refuses_reversed_and_nan_inputs(c, bracket, match):
    with pytest.raises(DomainError, match=match):
        solve_omega_for_mass(3, 1.0, 6.0, c, bracket)


def test_root_search_cap_is_a_convergence_error(monkeypatch):
    # the search takes 6 to 8 steps; a cap below that is never a returned root
    monkeypatch.setattr(starwaves, "_MAX_ROOT_STEPS", 2)
    with pytest.raises(ConvergenceError, match="in 2 steps"):
        solve_omega_for_mass(3, 1.0, 5.0, mass_curve(3, 1.0, 5.0, 1.0), (0.5, 2.0))


@pytest.mark.parametrize("p, argmax", [(6.0, 1.30036), (7.0, 0.52434), (8.0, 0.34582),
                                       (10.0, 0.23202)])
def test_monotone_window_ends_at_the_mass_maximum(p, argmax):
    # the mass curve's maximum, where dc/domega changes sign, ends the
    # window of stable frequencies
    thr, hi = monotone_window(3, 1.0, p)
    assert hi == pytest.approx(argmax, abs=5e-6)
    peak = mass_curve(3, 1.0, p, hi)
    assert peak >= mass_curve(3, 1.0, p, hi * (1.0 - 1e-5))
    assert peak >= mass_curve(3, 1.0, p, hi * (1.0 + 1e-5))


def test_monotone_window_shapes():
    thr, hi = monotone_window(3, 1.0, 5.0)
    assert thr == pytest.approx(1.0 / 9.0)
    assert hi > 40.0  # increasing everywhere at the critical power
    thr6, hi6 = monotone_window(3, 1.0, 6.0)
    assert 1.0 < hi6 < 1.6
    # curve really does decrease past the detected peak
    assert mass_curve(3, 1.0, 6.0, hi6 * 2.0) < mass_curve(3, 1.0, 6.0, hi6)


def test_the_window_search_always_finds_an_increasing_prefix():
    # monotone_window samples omega = thr s_k for fixed s_k, and
    # gamma / (N sqrt(omega)) = 1/sqrt(s_k): N and gamma scale the mass by one
    # positive factor, s_k^e H(1/sqrt(s_k), p) with e = (5-p)/(2(p-1)) is
    # left, and the sign of the first sampled step depends on p alone.  It
    # rises by more than 10 % for every 5 <= p <= 50 (least at p = 50), so
    # the first sampled step never falls and the window always has a prefix
    s = np.geomspace(1.001, 400.0, 80)[:2]
    for p in np.linspace(5.0, 50.0, 91):
        e = (5.0 - p) / (2.0 * (p - 1.0))
        rise = ((s[1] / s[0]) ** e * h_integral(1.0 / math.sqrt(s[1]), p)
                / h_integral(1.0 / math.sqrt(s[0]), p))
        assert rise > 1.1
        for n_edges, gamma in ((2, 1e-3), (3, 1.0), (7, 40.0), (50, 1e5)):
            thr = ClosedFormWave.threshold(n_edges, gamma)
            w = np.geomspace(thr * (1.0 + 1e-3), 400.0 * thr, 80)[:2]
            got = mass_curve(n_edges, gamma, p, w[1]) / mass_curve(n_edges, gamma, p, w[0])
            assert got == pytest.approx(rise, rel=1e-11)


def test_mass_curve_slope_positive_on_window():
    thr, hi = monotone_window(3, 1.0, 6.0)
    omegas = np.linspace(thr * 1.02, hi * 0.98, 12)
    vals = np.array([mass_curve(3, 1.0, 6.0, float(w)) for w in omegas])
    slopes = np.diff(vals) / np.diff(omegas)
    assert np.all(slopes > 0)


def test_sampled_mass_matches_curve(disc_h01):
    for omega in (0.15, 0.5, 1.5):
        u = evaluate_wave(ClosedFormWave(3, 1.0, 5.0, omega, 0), disc_h01)
        assert mesh.mass(u) == pytest.approx(mass_curve(3, 1.0, 5.0, omega), abs=1e-4)


def stationarity_residual(d, wave):
    u = evaluate_wave(wave, d).values.real
    r = d.A @ u + wave.omega * d.m * u - d.m * np.abs(u) ** (wave.p - 1.0) * u
    return float(np.max(np.abs(r)) / np.max(np.abs(u)))


def test_stationarity_second_order(star3):
    wave = ClosedFormWave(3, 1.0, 5.0, 1.0, 0)
    r1 = stationarity_residual(mesh.build(star3, 0.04), wave)
    r2 = stationarity_residual(mesh.build(star3, 0.02), wave)
    assert r1 / r2 >= 3.0


def test_vertex_balance_first_order(star3):
    wave = ClosedFormWave(3, 1.0, 6.0, 0.4, 0)
    defects = []
    for h in (0.04, 0.02):
        u = evaluate_wave(wave, mesh.build(star3, h))
        defects.append(abs(vertex_flux_defect(u, "v0")))
    assert defects[0] / defects[1] >= 1.6


def test_two_edge_wave_is_line_soliton():
    # N=2 collapses to the line with a delta: check stationarity there too
    g = make_star(StarGraphSpec(2, 1.0, 30.0))
    wave = ClosedFormWave(2, 1.0, 5.0, 1.0, 0)
    r = stationarity_residual(mesh.build(g, 0.01), wave)
    assert r < 5e-4
