"""Closed-form average link rates and network throughput.

Two first-order rate approximations anchor everything downstream:

* non-cooperative D2D link, interference-limited:
  ``rn = log2(q1) - log2(q2) - 3``  (equivalently ``log2(1 + s / (8 q2))``
  with ``s`` the own-cell moment), independent of transmit power;
* cooperative joint transmission from the 9-cell neighborhood with
  zero-forcing precoding:
  ``rc = log2(1 + P * D^-alpha * G0 * q1 / (B * sigma^2))`` where ``G0`` is
  the linear path gain at 1 m.

Both replace an average of ``log2(1 + X)`` by ``log2(1 + E[X])``; the
simulator exists to quantify that substitution, so no correction is applied
here.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields

from .errors import ConfigurationError, check_number
from .geometry import GeometryTable

__all__ = [
    "RadioParams",
    "dbm_to_watts",
    "noncoop_link_rate",
    "coop_link_rate",
    "network_throughput",
]


def dbm_to_watts(dbm: float) -> float:
    """Exact dBm to watts conversion, ``10^((dbm - 30) / 10)``."""
    return 10.0 ** ((dbm - 30.0) / 10.0)


@dataclass(frozen=True)
class RadioParams:
    """Radio-layer parameters.

    Attributes
    ----------
    tx_power_dbm : float
        Per-transmitter power ``P``.
    noise_dbm : float
        Noise power ``sigma^2`` over the full band.
    path_loss_intercept_db : float
        Attenuation at 1 m; with the ``37.6 + 36.8 log10(r [m])`` law this is
        37.6 dB and ``alpha = 3.68``.
    alpha : float
        Path-loss exponent (slope in dB/decade divided by 10).
    bandwidth_hz : float
        D2D band ``W``.

    Each field is checked by its rule (:func:`coopd2d.errors.check_number`);
    each dB field must also convert to a positive finite linear value.
    """

    tx_power_dbm: float
    noise_dbm: float
    path_loss_intercept_db: float
    alpha: float
    bandwidth_hz: float

    def __post_init__(self) -> None:
        for f in fields(self):
            check_number(f.name, getattr(self, f.name))
        # a power of 0 W or of an overflowing float has no meaning downstream
        for name, linear in (
            ("tx_power_dbm", "tx_power_w"),
            ("noise_dbm", "noise_w"),
            ("path_loss_intercept_db", "intercept_linear"),
        ):
            try:
                value = getattr(self, linear)
            except OverflowError:
                value = math.nan
            if not 0.0 < value < math.inf:
                raise ConfigurationError(
                    "%s must convert to a positive finite linear value, got %r"
                    % (name, getattr(self, name))
                )

    @property
    def tx_power_w(self) -> float:
        return dbm_to_watts(self.tx_power_dbm)

    @property
    def noise_w(self) -> float:
        return dbm_to_watts(self.noise_dbm)

    @property
    def intercept_linear(self) -> float:
        """Linear gain at 1 m, ``10^(-intercept_db / 10)``."""
        return 10.0 ** (-self.path_loss_intercept_db / 10.0)

    def path_gain(self, distance_m):
        """Linear power gain at ``distance_m`` meters."""
        return self.intercept_linear * distance_m ** (-self.alpha)


def noncoop_link_rate(geom: GeometryTable) -> float:
    """Average spectral efficiency of a non-cooperative D2D link.

    Parameters
    ----------
    geom : GeometryTable
        Truncated moments at the operating ``(alpha, r_min)``.

    Returns
    -------
    float
        ``log2(q1) - log2(q2) - 3`` bits/s/Hz.  The first-order formula can
        go negative for extreme moment ratios; such values are clamped to 0
        (with a warning carrying the raw value) since a negative average rate
        has no downstream meaning.  With no signal moment (``q1 == 8 q2``,
        a pairing floor past ``sqrt(2)`` cell sides) the rate is exactly 0,
        whatever rounding the logarithms carry.
    """
    if geom.q1 == 8.0 * geom.q2:
        return 0.0
    value = math.log2(geom.q1) - math.log2(geom.q2) - 3.0
    if value < 0.0:
        warnings.warn(
            "first-order non-cooperative rate is negative (%.6g); clamped to 0 "
            "for throughput use" % value,
            RuntimeWarning,
            stacklevel=2,
        )
        return 0.0
    return value


def coop_link_rate(
    geom: GeometryTable,
    radio: RadioParams,
    cluster_side_m: float,
    n_clusters: int,
) -> float:
    """Average spectral efficiency of a cooperative (jointly precoded) link.

    The ``B`` per-cluster transmitters jointly serve ``B`` receivers with
    zero-forcing precoding under a sum-power constraint ``B * P`` split
    equally per stream, so each stream sees an average received power of
    ``P`` times the aggregate 9-cell gain moment over ``B``.

    Parameters
    ----------
    geom : GeometryTable
    radio : RadioParams
    cluster_side_m : float
        Physical cluster side ``D`` (the moments are in units of ``D``).
    n_clusters : int
        Number of cooperating clusters ``B >= 1``.

    Returns
    -------
    float
        ``log2(1 + P * D^-alpha * G0 * q1 / (B * sigma^2))`` bits/s/Hz,
        ``inf`` when the mean gain overflows.
    """
    check_number("n_clusters", n_clusters)
    if not cluster_side_m > 0:
        raise ConfigurationError("cluster_side_m must be positive")
    try:
        mean_gain = radio.intercept_linear * cluster_side_m ** (-geom.alpha) * geom.q1
    except OverflowError:  # D^-alpha beyond the float range: an infinite rate
        mean_gain = math.inf
    snr = radio.tx_power_w * mean_gain / (n_clusters * radio.noise_w)
    return math.log2(1.0 + snr)


def network_throughput(
    pc: float, eta: float, rc: float, rn: float, bandwidth_hz: float, n_clusters: int
) -> float:
    """Average aggregate throughput of the D2D tier in bits/s.

    With probability ``pc`` the network has a cooperation opportunity and
    splits the band: fraction ``eta`` to the ``B`` cooperative links at
    ``rc``, the rest to the ``B`` non-cooperative links at ``rn``; otherwise
    everything runs non-cooperatively.  Collecting terms:

        W * B * (pc * eta * rc + (1 - pc * eta) * rn)

    Affine in ``eta`` with slope ``W * B * pc * (rc - rn)``.
    """
    for name, value in (("eta", eta), ("pc", pc), ("rc", rc), ("rn", rn)):
        check_number(name, value)
    return bandwidth_hz * n_clusters * (pc * eta * rc + (1.0 - pc * eta) * rn)
