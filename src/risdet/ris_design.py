"""Link budgets and aperture design for a reflective surface assist.

Received-power chains for the three echo paths (direct, single-bounce, and
double-bounce through the surface), minimum aperture sizing against a target
surface RCS, and the boresight RCS of uniform, sinc, and LFM illumination
tapers with their beamwidth trade.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .geometry import ScenarioGeometry, path_distances

FOUR_PI = 4.0 * math.pi

# Half-power beamwidth of a uniformly illuminated line source, degrees,
# divided by the aperture length in wavelengths.
_HPBW_COEFF_DEG = 50.8


def dbsm(sigma_m2: float) -> float:
    """RCS in decibels relative to one square meter."""
    if sigma_m2 <= 0:
        raise ValueError("RCS must be positive")
    return 10.0 * math.log10(sigma_m2)


def from_dbsm(sigma_dbsm: float) -> float:
    """RCS in square meters; ValueError unless it is finite and positive."""
    try:
        sigma = 10.0 ** (sigma_dbsm / 10.0)
    except OverflowError:
        sigma = math.inf
    if not 0.0 < sigma < math.inf:
        raise ValueError(f"{sigma_dbsm!r} dBsm is not a finite positive RCS")
    return sigma


def si(z: float) -> float:
    """Sine integral: integral of sin(t)/t from 0 to z.

    scipy is imported here, on the first call, because only the sinc taper
    needs it; every other subcommand starts without loading scipy.
    """
    from scipy.special import sici

    return float(sici(z)[0])


class EchoPath(Enum):
    RTR = "rtr"
    RSTR = "rstr"
    RSTSR = "rstsr"


@dataclass(frozen=True)
class LinkBudget:
    """Transmit chain, per-path target RCS, and the three path lengths."""

    p_t: float
    g_t_dbi: float
    wavelength: float
    sigma_rtr: float
    sigma_str: float
    sigma_sts: float
    d_rt: float
    d_rs: float
    d_st: float

    def __post_init__(self) -> None:
        for name in ("p_t", "wavelength", "sigma_rtr", "sigma_str",
                     "sigma_sts", "d_rt", "d_rs", "d_st"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    @property
    def g_t(self) -> float:
        """Transmit gain, linear."""
        return 10.0 ** (self.g_t_dbi / 10.0)

    @property
    def a_eff(self) -> float:
        """Effective receive aperture of the radar."""
        return self.wavelength ** 2 * self.g_t / FOUR_PI

    @classmethod
    def from_geometry(
        cls,
        geom: ScenarioGeometry,
        p_t: float,
        g_t_dbi: float,
        sigma_rtr: float,
        sigma_str: float,
        sigma_sts: float,
    ) -> "LinkBudget":
        d_rt, d_rs, d_st = path_distances(geom)
        return cls(p_t=p_t, g_t_dbi=g_t_dbi, wavelength=geom.wavelength,
                   sigma_rtr=sigma_rtr, sigma_str=sigma_str,
                   sigma_sts=sigma_sts, d_rt=d_rt, d_rs=d_rs, d_st=d_st)


def received_power(path: EchoPath, lb: LinkBudget, sigma_ris: float) -> float:
    """Received power in watts for one echo path at the given surface RCS.

    The direct path is independent of sigma_ris; the single-bounce path is
    linear and the double-bounce path quadratic in it.
    """
    if sigma_ris <= 0:
        raise ValueError("sigma_ris must be positive")
    if path is EchoPath.RTR:
        return (lb.p_t * lb.g_t * lb.sigma_rtr * lb.a_eff
                / (FOUR_PI ** 2 * lb.d_rt ** 4))
    if path is EchoPath.RSTR:
        return (lb.p_t * lb.g_t / (FOUR_PI * lb.d_rs ** 2)
                * sigma_ris
                / (FOUR_PI * lb.d_st ** 2)
                * lb.sigma_str
                * lb.a_eff / (FOUR_PI * lb.d_rt ** 2))
    if path is EchoPath.RSTSR:
        return (lb.p_t * lb.g_t / (FOUR_PI * lb.d_rs ** 2) ** 2
                * sigma_ris ** 2
                / (FOUR_PI * lb.d_st ** 2) ** 2
                * lb.sigma_sts
                * lb.a_eff)
    raise ValueError(f"unknown path {path!r}")


def crossover_rcs(lb: LinkBudget, path: EchoPath | str = "total") -> float:
    """Surface RCS (m²) at which a bounced path first matches the direct one.

    path "rstr" solves single-bounce = direct, "rstsr" double-bounce =
    direct, and "total" the sum of both bounced paths = direct; each has a
    closed form because the powers are monomials in sigma_ris.
    """
    p_direct = received_power(EchoPath.RTR, lb, 1.0)
    c1 = received_power(EchoPath.RSTR, lb, 1.0)
    c2 = received_power(EchoPath.RSTSR, lb, 1.0)
    token = path.value if isinstance(path, EchoPath) else str(path).lower()
    if token == "rstr":
        return p_direct / c1
    if token == "rstsr":
        return math.sqrt(p_direct / c2)
    if token == "total":
        return (-c1 + math.sqrt(c1 ** 2 + 4.0 * c2 * p_direct)) / (2.0 * c2)
    raise ValueError(f"unknown crossover path {path!r}")


# ---------------------------------------------------------------------------
# Aperture sizing and tapering
# ---------------------------------------------------------------------------

def uniform_rcs(length: float, wavelength: float) -> float:
    """Boresight RCS of a perfectly phased square aperture: 4 pi L^4 / lambda^2."""
    if length <= 0 or wavelength <= 0:
        raise ValueError("length and wavelength must be positive")
    return FOUR_PI * length ** 4 / wavelength ** 2


@dataclass(frozen=True)
class ApertureDesign:
    """Minimum square aperture meeting an RCS target."""

    side: float
    n_elements: int
    hpbw_deg: float


def min_size(sigma_m2: float, wavelength: float) -> ApertureDesign:
    """Smallest uniform square aperture whose boresight RCS reaches sigma.

    Side length inverts the uniform-taper RCS; the element count assumes
    half-wavelength spacing; the beamwidth follows the uniform line-source
    rule 2 x 50.8 deg / N.
    """
    if sigma_m2 <= 0 or wavelength <= 0:
        raise ValueError("sigma and wavelength must be positive")
    side = (sigma_m2 * wavelength ** 2 / FOUR_PI) ** 0.25
    n_elements = math.ceil(2.0 * side / wavelength)
    hpbw_deg = 2.0 * _HPBW_COEFF_DEG / n_elements
    return ApertureDesign(side=side, n_elements=n_elements, hpbw_deg=hpbw_deg)


def beam_parameter(phi0_deg: float, wavelength: float) -> float:
    """Sinc-taper beam parameter b = lambda / phi0, with phi0 in radians."""
    if phi0_deg <= 0 or wavelength <= 0:
        raise ValueError("phi0 and wavelength must be positive")
    return wavelength / math.radians(phi0_deg)


def sinc_rcs(length: float, b: float, wavelength: float) -> tuple[float, float]:
    """Boresight RCS of a sinc-tapered aperture and its large-L asymptote.

    Returns (value, asymptote) with
    value = (16 b^2 L^2 / (pi lambda^2)) Si^2(pi L / (2 b)) and
    asymptote = 4 pi b^2 L^2 / lambda^2 (the Si(inf) = pi/2 limit).
    """
    if length <= 0 or b <= 0 or wavelength <= 0:
        raise ValueError("length, b, and wavelength must be positive")
    value = (16.0 * b ** 2 * length ** 2 / (math.pi * wavelength ** 2)
             * si(math.pi * length / (2.0 * b)) ** 2)
    asymptote = FOUR_PI * b ** 2 * length ** 2 / wavelength ** 2
    return value, asymptote


def chirp_rate(phi0_deg: float, wavelength: float, length: float) -> float:
    """LFM spatial chirp rate K_x = phi0 / (lambda L), phi0 in radians."""
    if phi0_deg <= 0 or wavelength <= 0 or length <= 0:
        raise ValueError("phi0, wavelength, and length must be positive")
    return math.radians(phi0_deg) / (wavelength * length)


def lfm_rcs(length: float, k_x: float, wavelength: float) -> float:
    """Stationary-phase RCS of an LFM-tapered aperture: 8 pi L^2 / (lambda^2 K_x)."""
    if length <= 0 or k_x <= 0 or wavelength <= 0:
        raise ValueError("length, k_x, and wavelength must be positive")
    return 8.0 * math.pi * length ** 2 / (wavelength ** 2 * k_x)


@dataclass(frozen=True)
class TaperingRow:
    side: float
    uniform_m2: float
    sinc_m2: float
    lfm_m2: float


def tapering_comparison(
    wavelength: float, phi0_deg: float, l_grid: list[float] | np.ndarray
) -> list[TaperingRow]:
    """Boresight RCS of the three tapers over a grid of aperture sides.

    The sinc and LFM tapers are both tied to the same beamwidth target
    phi0; the LFM chirp rate is re-derived at each side length.
    """
    rows = []
    b = beam_parameter(phi0_deg, wavelength)
    for length in l_grid:
        length = float(length)
        rows.append(TaperingRow(
            side=length,
            uniform_m2=uniform_rcs(length, wavelength),
            sinc_m2=sinc_rcs(length, b, wavelength)[0],
            lfm_m2=lfm_rcs(length, chirp_rate(phi0_deg, wavelength, length),
                           wavelength),
        ))
    return rows
