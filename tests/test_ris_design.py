import math

import numpy as np
import pytest
from scipy import special

import oracles
from risdet.geometry import ScenarioGeometry
from risdet.ris_design import (
    ApertureDesign,
    EchoPath,
    LinkBudget,
    beam_parameter,
    chirp_rate,
    crossover_rcs,
    dbsm,
    from_dbsm,
    lfm_rcs,
    min_size,
    received_power,
    si,
    sinc_rcs,
    tapering_comparison,
    uniform_rcs,
)

CASE_STUDY = ScenarioGeometry((-30_000.0, 200.0), (0.0, 0.0),
                              (1_000.0, 500.0), 20.0, 3e9)


def case_budget() -> LinkBudget:
    return LinkBudget.from_geometry(
        CASE_STUDY, p_t=10_000.0, g_t_dbi=37.0,
        sigma_rtr=0.01, sigma_str=1.0, sigma_sts=1.0)


def test_dbsm_roundtrip():
    assert dbsm(1.0) == 0.0
    assert dbsm(100.0) == pytest.approx(20.0)
    assert from_dbsm(dbsm(3.7)) == pytest.approx(3.7, rel=1e-12)
    with pytest.raises(ValueError):
        dbsm(0.0)


def test_si_basics():
    assert si(0.0) == 0.0
    assert si(-3.0) == -si(3.0)
    # Series region: the linear term dominates.
    assert si(1e-4) == pytest.approx(1e-4, rel=1e-11)


def test_si_against_scipy():
    for z in (1e-4, 0.5, 1.0, 2.0, math.pi, 10.0, 50.0, 100.0):
        assert si(z) == pytest.approx(special.sici(z)[0], abs=1e-10)


def test_si_against_trapezoid_oracle():
    for z in (0.7, 3.3, 12.0):
        assert si(z) == pytest.approx(oracles.si_trapezoid(z), abs=1e-8)


def test_si_peak_and_limit():
    # Global maximum at z = pi, approach to pi/2 afterwards.
    assert si(math.pi) == pytest.approx(1.851937051982, abs=1e-9)
    assert si(200.0) == pytest.approx(math.pi / 2, abs=0.01)


def test_link_budget_fields():
    lb = case_budget()
    assert lb.wavelength == pytest.approx(299792458.0 / 3e9, rel=1e-12)
    assert lb.g_t == pytest.approx(10.0 ** 3.7, rel=1e-12)
    assert lb.a_eff == pytest.approx(
        lb.wavelength ** 2 * lb.g_t / (4 * math.pi), rel=1e-12)
    assert lb.d_rt == pytest.approx(math.hypot(31_000.0, 300.0), rel=1e-12)
    assert lb.d_rs == pytest.approx(math.hypot(30_000.0, 200.0), rel=1e-12)
    assert lb.d_st == pytest.approx(math.hypot(1_000.0, 500.0), rel=1e-12)
    with pytest.raises(ValueError):
        LinkBudget(p_t=-1.0, g_t_dbi=37.0, wavelength=0.1, sigma_rtr=1.0,
                   sigma_str=1.0, sigma_sts=1.0, d_rt=1.0, d_rs=1.0, d_st=1.0)


def test_received_power_hand_chain():
    lb = case_budget()
    f = 4.0 * math.pi
    sig = from_dbsm(60.0)
    direct = lb.p_t * lb.g_t * lb.sigma_rtr * lb.a_eff / (f * lb.d_rt ** 2) ** 2
    single = (lb.p_t * lb.g_t / (f * lb.d_rs ** 2)
              * sig / (f * lb.d_st ** 2)
              * lb.sigma_str * lb.a_eff / (f * lb.d_rt ** 2))
    double = (lb.p_t * lb.g_t / (f * lb.d_rs ** 2)
              * sig / (f * lb.d_st ** 2)
              * lb.sigma_sts / (f * lb.d_st ** 2)
              * sig / (f * lb.d_rs ** 2)
              * lb.a_eff)
    assert received_power(EchoPath.RTR, lb, sig) == pytest.approx(
        direct, rel=1e-12)
    assert received_power(EchoPath.RSTR, lb, sig) == pytest.approx(
        single, rel=1e-12)
    assert received_power(EchoPath.RSTSR, lb, sig) == pytest.approx(
        double, rel=1e-12)
    with pytest.raises(ValueError):
        received_power(EchoPath.RTR, lb, 0.0)


def test_received_power_slopes():
    """Log-log slope in sigma: 0 for direct, 1 single bounce, 2 double."""
    lb = case_budget()
    lo, hi = 1.0, 10.0
    for path, slope in ((EchoPath.RTR, 0.0), (EchoPath.RSTR, 1.0),
                        (EchoPath.RSTSR, 2.0)):
        p_lo = received_power(path, lb, lo)
        p_hi = received_power(path, lb, hi)
        assert math.log10(p_hi / p_lo) == pytest.approx(slope, abs=1e-12)


def test_crossover_balances_the_paths():
    lb = case_budget()
    p_direct = received_power(EchoPath.RTR, lb, 1.0)
    s1 = crossover_rcs(lb, "rstr")
    assert received_power(EchoPath.RSTR, lb, s1) == pytest.approx(
        p_direct, rel=1e-10)
    s2 = crossover_rcs(lb, "rstsr")
    assert received_power(EchoPath.RSTSR, lb, s2) == pytest.approx(
        p_direct, rel=1e-10)
    st = crossover_rcs(lb, EchoPath.RSTR)
    assert st == s1
    tot = crossover_rcs(lb, "total")
    both = (received_power(EchoPath.RSTR, lb, tot)
            + received_power(EchoPath.RSTSR, lb, tot))
    assert both == pytest.approx(p_direct, rel=1e-10)
    # Two paths together reach the direct level at a smaller RCS than
    # either alone.
    assert tot <= min(s1, s2)
    with pytest.raises(ValueError):
        crossover_rcs(lb, "direct")


def test_bounced_paths_dominate_at_55_dbsm():
    lb = case_budget()
    sig = from_dbsm(55.0)
    p_direct = received_power(EchoPath.RTR, lb, sig)
    assert received_power(EchoPath.RSTR, lb, sig) > p_direct
    assert dbsm(crossover_rcs(lb, "rstr")) < 55.0
    assert dbsm(crossover_rcs(lb, "total")) < 55.0
    # The double-bounce path alone needs a larger surface.
    assert dbsm(crossover_rcs(lb, "rstsr")) > 55.0


def test_uniform_rcs_values():
    assert uniform_rcs(0.1, 0.1) == pytest.approx(0.12566, rel=1e-4)
    assert uniform_rcs(2.0, 0.1) / uniform_rcs(1.0, 0.1) == pytest.approx(16.0)
    with pytest.raises(ValueError):
        uniform_rcs(0.0, 0.1)


def test_min_size_inverts_uniform_rcs():
    for target in (10.0, 1e4, from_dbsm(55.0)):
        design = min_size(target, 0.1)
        assert uniform_rcs(design.side, 0.1) == pytest.approx(
            target, rel=1e-9)


def test_min_size_case_study():
    design = min_size(from_dbsm(55.0), 0.1)
    assert design.side == pytest.approx(3.9831, abs=1e-3)
    assert design.n_elements == 80
    assert design.hpbw_deg == pytest.approx(1.27, abs=1e-6)
    assert abs(design.hpbw_deg - 1.5) < 0.5
    assert isinstance(design, ApertureDesign)


def test_beam_parameter_value():
    assert beam_parameter(10.0, 0.1) == pytest.approx(0.5730, abs=1e-3)
    with pytest.raises(ValueError):
        beam_parameter(-1.0, 0.1)


def test_sinc_rcs_against_independent_formula():
    lam = 299792458.0 / 3e9
    b = beam_parameter(10.0, lam)
    for length in (0.3, 1.0, 4.0):
        x = math.pi * length / (2.0 * b)
        expect = (16.0 * b ** 2 * length ** 2 / (math.pi * lam ** 2)
                  * special.sici(x)[0] ** 2)
        value, asymptote = sinc_rcs(length, b, lam)
        assert value == pytest.approx(expect, rel=1e-9)
        assert asymptote == pytest.approx(
            4 * math.pi * b ** 2 * length ** 2 / lam ** 2, rel=1e-12)


def test_sinc_rcs_approaches_asymptote():
    b = 0.573
    value, asymptote = sinc_rcs(1000.0 * b, b, 0.1)
    assert value / asymptote == pytest.approx(1.0, abs=2e-3)


def test_sinc_stays_below_uniform():
    lam = 0.1
    b = beam_parameter(10.0, lam)
    for length in np.geomspace(0.05, 10.0, 15):
        assert sinc_rcs(length, b, lam)[0] < uniform_rcs(length, lam)


def test_chirp_substitution_identity():
    lam = 299792458.0 / 3e9
    for length in (1.0, 4.0, 10.0):
        got = lfm_rcs(length, chirp_rate(10.0, lam, length), lam)
        expect = 8 * math.pi * length ** 3 / (lam * math.radians(10.0))
        assert got == pytest.approx(expect, rel=1e-12)


def test_lfm_large_aperture_case():
    lam = 299792458.0 / 3e9
    sigma = lfm_rcs(10.0, chirp_rate(10.0, lam, 10.0), lam)
    assert dbsm(sigma) == pytest.approx(61.59, abs=0.05)
    assert dbsm(sigma) > 60.0
    # Fixed beamwidth: RCS grows with the cube of the side.
    doubled = lfm_rcs(20.0, chirp_rate(10.0, lam, 20.0), lam)
    assert doubled / sigma == pytest.approx(8.0, rel=1e-12)


def test_rcs_scale_invariance():
    """All three boresight RCS formulas are degree-2 homogeneous in scale."""
    lam, length, phi0, s = 0.1, 1.7, 10.0, 3.0
    b = beam_parameter(phi0, lam)
    assert uniform_rcs(s * length, s * lam) == pytest.approx(
        s ** 2 * uniform_rcs(length, lam), rel=1e-12)
    assert sinc_rcs(s * length, s * b, s * lam)[0] == pytest.approx(
        s ** 2 * sinc_rcs(length, b, lam)[0], rel=1e-9)
    assert lfm_rcs(s * length, chirp_rate(phi0, s * lam, s * length),
                   s * lam) == pytest.approx(
        s ** 2 * lfm_rcs(length, chirp_rate(phi0, lam, length), lam),
        rel=1e-12)


def test_tapering_comparison_rows():
    lam = 299792458.0 / 3e9
    grid = [0.5, 2.0, 8.0]
    rows = tapering_comparison(lam, 10.0, grid)
    assert [r.side for r in rows] == grid
    b = beam_parameter(10.0, lam)
    for row in rows:
        assert row.uniform_m2 == uniform_rcs(row.side, lam)
        assert row.sinc_m2 == sinc_rcs(row.side, b, lam)[0]
        assert row.lfm_m2 == lfm_rcs(
            row.side, chirp_rate(10.0, lam, row.side), lam)


def test_tapering_ordering():
    lam = 299792458.0 / 3e9
    b = beam_parameter(10.0, lam)
    rows = tapering_comparison(lam, 10.0, np.geomspace(0.2 * b, 20 * b, 24))
    for row in rows:
        assert row.sinc_m2 < row.lfm_m2
        assert row.sinc_m2 < row.uniform_m2
        # Uniform overtakes LFM exactly at side 2b.
        if row.side > 2.0 * b * (1 + 1e-9):
            assert row.uniform_m2 > row.lfm_m2
        elif row.side < 2.0 * b * (1 - 1e-9):
            assert row.uniform_m2 < row.lfm_m2
