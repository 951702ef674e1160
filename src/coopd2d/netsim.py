"""Monte Carlo network simulator for the cached-D2D hotspot.

Each trial drops ``K`` users uniformly in every cell of a ``sqrt(B) x
sqrt(B)`` grid, assigns cache groups (user ``j`` of a cell caches group
``j``), draws one request per user from the full catalog, classifies users,
schedules at most one cooperative link set and one non-cooperative link per
cluster, and converts fading realizations into spectral efficiencies:

* cooperative links: zero-forcing precoding across the ``B`` pairs under a
  sum power ``B * P`` split equally per stream;
* non-cooperative links: treated-as-noise SINR with every co-band cluster
  interfering (the analytic 8-neighbor truncation is not applied here) and
  the thermal noise term retained.

Strategies: ``coop`` (band split ``eta``), ``nocoop`` (everything
non-cooperative on the full band; identical to ``coop`` with ``eta = 0`` by
construction, seeds included), and ``tdma`` (reuse-4 grid coloring, each
color active every 4th slot on the full band).

Reproducibility contract: trial ``t`` derives all of its randomness from
``default_rng([seed, t])`` with a fixed draw order (positions, requests,
scheduling choices, fading), per-trial results live at index ``t`` of the
campaign arrays, and aggregation runs over those ordered arrays; thread or
process count therefore cannot change any output bit.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .catalog import PopularityModel
from .clusters import ClusterPlan
from .errors import ConfigurationError, SingularChannelError
from .rates import RadioParams

__all__ = [
    "SimConfig",
    "Snapshot",
    "SimResult",
    "TRIAL_DTYPE",
    "drop_snapshot",
    "schedule",
    "zf_rates",
    "noncoop_rates",
    "run_campaign",
]

_COND_LIMIT = 1e8
_STRATEGIES = ("coop", "nocoop", "tdma")

TRIAL_DTYPE = np.dtype(
    [
        ("mode", np.int8),
        ("throughput", np.float64),
        ("n_coop", np.int16),
        ("n_noncoop", np.int16),
        ("n_cellular", np.int16),
        ("coop_band", np.float64),
        ("dropped_links", np.int16),
        ("degenerate", np.int8),
        ("silent_clusters", np.int16),
        ("discarded", np.int8),
    ]
)


@dataclass(frozen=True)
class SimConfig:
    """Immutable campaign description.

    ``strategy`` is one of ``"coop"``, ``"nocoop"``, ``"tdma"``; ``eta`` is
    the cooperative band fraction (used by ``coop``).
    ``min_pairing_distance_m`` floors every link distance, mirroring the
    near-field truncation of the analytic moments.
    """

    plan: ClusterPlan
    radio: RadioParams
    popularity: PopularityModel
    strategy: str
    trials: int
    seed: int
    eta: float = 0.0
    min_pairing_distance_m: float = 1.0

    def __post_init__(self) -> None:
        grid = math.isqrt(self.plan.n_clusters)
        if grid * grid != self.plan.n_clusters:
            raise ConfigurationError(
                "n_clusters must be a perfect square for the grid layout, got %d"
                % self.plan.n_clusters
            )
        if self.strategy not in _STRATEGIES:
            raise ConfigurationError(
                "strategy must be one of %s, got %r" % (_STRATEGIES, self.strategy)
            )
        if self.trials < 1:
            raise ConfigurationError("trials must be >= 1, got %r" % (self.trials,))
        if self.strategy == "coop" and not 0.0 <= self.eta <= 1.0:
            raise ConfigurationError("eta must be in [0, 1], got %r" % (self.eta,))
        if self.plan.users_per_cluster > self.popularity.group_count:
            raise ConfigurationError(
                "users_per_cluster (%d) exceeds the catalog's group count (%d)"
                % (self.plan.users_per_cluster, self.popularity.group_count)
            )
        if self.min_pairing_distance_m < 0:
            raise ConfigurationError("min_pairing_distance_m must be >= 0")


@dataclass(frozen=True)
class Snapshot:
    """One dropped network state.

    Group indices are 0-based; ``roles`` holds ``"coop"``, ``"noncoop"`` or
    ``"cellular"`` per user; ``mode`` is 1 iff some cached group is hit by
    every cluster (``hit_groups`` non-empty).
    """

    positions: np.ndarray = field(repr=False)
    cluster_of: np.ndarray = field(repr=False)
    cache_group_of: np.ndarray = field(repr=False)
    request_of: np.ndarray = field(repr=False)
    roles: np.ndarray = field(repr=False)
    mode: int
    hit_groups: frozenset


def _drop(config: SimConfig, rng: np.random.Generator) -> Snapshot:
    plan = config.plan
    b, k = plan.n_clusters, plan.users_per_cluster
    m, d = plan.n_users, plan.cluster_side_m
    grid = math.isqrt(b)

    cluster_of = np.repeat(np.arange(b), k)
    cache_group_of = np.tile(np.arange(k), b)
    origins = np.column_stack((np.arange(b) % grid, np.arange(b) // grid)) * d
    positions = rng.random((m, 2)) * d + origins[cluster_of]

    cdf = np.cumsum(config.popularity.group_probs)
    k0 = config.popularity.group_count
    request_of = np.minimum(
        np.searchsorted(cdf, rng.random(m), side="right"), k0 - 1
    )

    per_cluster = request_of.reshape(b, k)
    counts = (per_cluster[:, :, None] == np.arange(k)[None, None, :]).sum(axis=1)
    hit = np.flatnonzero((counts > 0).all(axis=0))

    roles = np.full(m, "cellular", dtype="<U8")
    roles[request_of < k] = "noncoop"
    if hit.size:
        roles[np.isin(request_of, hit)] = "coop"

    return Snapshot(
        positions=positions,
        cluster_of=cluster_of,
        cache_group_of=cache_group_of,
        request_of=request_of,
        roles=roles,
        mode=1 if hit.size else 0,
        hit_groups=frozenset(int(g) for g in hit),
    )


def drop_snapshot(config: SimConfig, trial_index: int) -> Snapshot:
    """Drop the deterministic snapshot of trial ``trial_index``.

    Equivalent to the first phase of a campaign trial: the generator is
    ``default_rng([config.seed, trial_index])`` and the draw order is
    positions, then requests.
    """
    rng = np.random.default_rng([config.seed, trial_index])
    return _drop(config, rng)


def schedule(snapshot: Snapshot, rng: np.random.Generator, cooperation: bool = True):
    """Pick the cooperative link set and per-cluster non-cooperative links.

    Parameters
    ----------
    snapshot : Snapshot
    rng : numpy.random.Generator
        Continues the trial's stream; choices draw in cluster order.
    cooperation : bool, optional
        When False (the ``eta = 0`` / baseline semantics) no cooperative
        links are formed and the non-cooperative pool covers requesters of
        ANY cached group.  When True, the pool covers only non-hit cached
        groups (hit-group requesters are cooperative users awaiting their
        band).

    Returns
    -------
    coop_links : list of (dt, dr)
        Global user indices, one pair per cluster in Mode 1 (empty in Mode 0
        or in the degenerate case where no hit group has an eligible
        receiver in every cluster).
    noncoop_links : list of (dt, dr)
        At most one per cluster; clusters without an eligible pair are
        silent.

    Notes
    -----
    A user never pairs with itself: the receiver of group ``g`` is drawn
    among requesters other than the user caching ``g``.  In Mode 1 the
    transmitted group is drawn uniformly among hit groups that have such a
    receiver in every cluster.
    """
    b = int(snapshot.cluster_of[-1]) + 1
    m = snapshot.cluster_of.shape[0]
    k = m // b
    per_cluster = snapshot.request_of.reshape(b, k)

    coop_links: list[tuple[int, int]] = []
    chosen_group = -1
    if cooperation and snapshot.mode == 1:
        valid = []
        for g in sorted(snapshot.hit_groups):
            # eligible receiver in cluster c: requester of g other than user g
            ok = True
            for c in range(b):
                req = np.flatnonzero(per_cluster[c] == g)
                if req.size == 0 or (req.size == 1 and req[0] == g):
                    ok = False
                    break
            if ok:
                valid.append(g)
        if valid:
            chosen_group = valid[int(rng.integers(len(valid)))]
            for c in range(b):
                req = np.flatnonzero(per_cluster[c] == chosen_group)
                req = req[req != chosen_group]
                dr = int(req[int(rng.integers(req.size))])
                coop_links.append((c * k + chosen_group, c * k + dr))

    noncoop_links: list[tuple[int, int]] = []
    restrict = cooperation and snapshot.mode == 1
    for c in range(b):
        reqs = per_cluster[c]
        eligible = np.flatnonzero(
            (reqs < k) & (reqs != np.arange(k))
            & (~np.isin(reqs, list(snapshot.hit_groups)) if restrict else True)
        )
        if eligible.size:
            j = int(eligible[int(rng.integers(eligible.size))])
            noncoop_links.append((c * k + int(reqs[j]), c * k + j))

    return coop_links, noncoop_links


def _link_distances(
    links, positions: np.ndarray, min_distance_m: float
) -> np.ndarray:
    """Matrix d[i, j] = distance from transmitter j to receiver i, floored."""
    dt = positions[[t for t, _ in links]]
    dr = positions[[r for _, r in links]]
    d = np.linalg.norm(dr[:, None, :] - dt[None, :, :], axis=-1)
    return np.maximum(d, min_distance_m)


def zf_rates(
    coop_links,
    positions: np.ndarray,
    radio: RadioParams,
    rng: np.random.Generator,
    min_distance_m: float = 0.0,
    channel: np.ndarray | None = None,
) -> np.ndarray:
    """Per-link spectral efficiency of the jointly precoded cooperative set.

    Builds the composite channel ``H[i, j] = sqrt(gain(d_ij) / 2) *
    (x + i y)`` with standard normal ``x, y`` (unit mean-square fading),
    precodes with the columns of ``H^-1`` at equal per-stream transmit power
    ``P`` (sum ``B * P``), and returns ``log2(1 + P / (sigma^2 *
    ||column_i||^2))`` per link.

    If the channel's condition number exceeds 1e8, the worst link (largest
    inverse-column norm) is dropped, the reduced system re-inverted, and the
    dropped link reported as rate 0; if the reduction bottoms out without a
    usable channel a :class:`SingularChannelError` asks the caller to
    discard the trial.

    Parameters
    ----------
    channel : numpy.ndarray, optional
        Inject the composite (gain-weighted) channel matrix instead of
        drawing fading; useful for constructed test cases.  No fading draws
        are consumed from ``rng`` in that case.

    Returns
    -------
    numpy.ndarray
        Shape ``(len(coop_links),)``; exact zeros mark dropped links.
    """
    n = len(coop_links)
    if n == 0:
        return np.zeros(0)
    if channel is None:
        d = _link_distances(coop_links, positions, min_distance_m)
        gain = radio.path_gain(d)
        h = np.sqrt(gain / 2.0) * (
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        )
    else:
        h = np.asarray(channel, dtype=complex)

    p_w, noise_w = radio.tx_power_w, radio.noise_w
    rates = np.zeros(n)
    active = list(range(n))
    while active:
        sub = h[np.ix_(active, active)]
        cond = np.linalg.cond(sub)
        if not np.isfinite(cond):
            break
        try:
            inv = np.linalg.inv(sub)
        except np.linalg.LinAlgError:
            break
        col_norm2 = (np.abs(inv) ** 2).sum(axis=0)
        if cond <= _COND_LIMIT:
            rates[active] = np.log2(1.0 + p_w / (noise_w * col_norm2))
            return rates
        active.pop(int(np.argmax(col_norm2)))
    raise SingularChannelError(
        "composite channel unusable after dropping all links"
    )


def noncoop_rates(
    noncoop_links,
    positions: np.ndarray,
    radio: RadioParams,
    rng: np.random.Generator,
    min_distance_m: float = 0.0,
    fading_power: np.ndarray | None = None,
) -> np.ndarray:
    """Per-link spectral efficiency of simultaneous non-cooperative links.

    Every link treats all others as noise; the thermal noise term stays in
    the denominator (quantifying, rather than assuming, the
    interference-limited approximation):

        SINR_i = P g_ii |h_ii|^2 / (sum_{j != i} P g_ij |h_ij|^2 + sigma^2)

    Parameters
    ----------
    fading_power : numpy.ndarray, optional
        Inject the ``|h_ij|^2`` matrix (e.g. all ones for unit fading)
        instead of drawing Rayleigh fading; no draws consumed then.

    Returns
    -------
    numpy.ndarray
        Shape ``(len(noncoop_links),)``.
    """
    n = len(noncoop_links)
    if n == 0:
        return np.zeros(0)
    d = _link_distances(noncoop_links, positions, min_distance_m)
    gain = radio.path_gain(d)
    if fading_power is None:
        x = rng.standard_normal((n, n))
        y = rng.standard_normal((n, n))
        fading_power = (x * x + y * y) / 2.0
    power = gain * fading_power  # P-normalized received powers

    p_w, noise_w = radio.tx_power_w, radio.noise_w
    received = p_w * power
    signal = np.diag(received).copy()
    interference = received.sum(axis=1) - signal
    return np.log2(1.0 + signal / (interference + noise_w))


def _tdma_throughput(
    config: SimConfig, snapshot: Snapshot, links, rng: np.random.Generator
) -> float:
    """Time-averaged throughput of the reuse-4 baseline for one trial."""
    plan = config.plan
    grid = math.isqrt(plan.n_clusters)
    k = plan.users_per_cluster
    w = config.radio.bandwidth_hz
    total = 0.0
    for color in range(4):
        row_par, col_par = divmod(color, 2)
        slot_links = [
            (dt, dr)
            for dt, dr in links
            if ((dt // k) // grid) % 2 == row_par and ((dt // k) % grid) % 2 == col_par
        ]
        slot = noncoop_rates(
            slot_links,
            snapshot.positions,
            config.radio,
            rng,
            config.min_pairing_distance_m,
        )
        total += w * float(slot.sum())
    return total / 4.0


def _run_trial(config: SimConfig, trial_index: int) -> tuple:
    rng = np.random.default_rng([config.seed, trial_index])
    snapshot = _drop(config, rng)
    w, eta = config.radio.bandwidth_hz, config.eta
    cooperation = config.strategy == "coop" and eta > 0.0

    coop_links, noncoop_links = schedule(snapshot, rng, cooperation=cooperation)
    n_coop = int(np.count_nonzero(snapshot.roles == "coop"))
    n_noncoop = int(np.count_nonzero(snapshot.roles == "noncoop"))
    n_cellular = int(np.count_nonzero(snapshot.roles == "cellular"))
    silent = config.plan.n_clusters - len(noncoop_links)
    degenerate = int(cooperation and snapshot.mode == 1 and not coop_links)

    dropped = 0
    coop_band = 0.0
    try:
        if config.strategy == "tdma":
            throughput = _tdma_throughput(config, snapshot, noncoop_links, rng)
        else:
            if cooperation and snapshot.mode == 1:
                if coop_links:
                    zf = zf_rates(
                        coop_links,
                        snapshot.positions,
                        config.radio,
                        rng,
                        config.min_pairing_distance_m,
                    )
                    dropped = int(np.count_nonzero(zf == 0.0))
                    coop_band = eta * w * float(zf.sum())
                band_share = 1.0 - eta
            else:
                band_share = 1.0  # Mode 0 or eta=0: the whole band is non-coop
            nc = noncoop_rates(
                noncoop_links,
                snapshot.positions,
                config.radio,
                rng,
                config.min_pairing_distance_m,
            )
            throughput = coop_band + band_share * w * float(nc.sum())
    except SingularChannelError:
        return (
            snapshot.mode, math.nan, n_coop, n_noncoop, n_cellular,
            math.nan, 0, degenerate, silent, 1,
        )

    return (
        snapshot.mode, throughput, n_coop, n_noncoop, n_cellular,
        coop_band, dropped, degenerate, silent, 0,
    )


def _run_range(args) -> np.ndarray:
    config, start, stop = args
    out = np.empty(stop - start, dtype=TRIAL_DTYPE)
    for t in range(start, stop):
        out[t - start] = _run_trial(config, t)
    return out


@dataclass(frozen=True)
class SimResult:
    """Aggregate of one campaign.

    ``mean_counts`` is ``(coop, noncoop, cellular)``; the two user
    throughputs divide each band's mean throughput by the matching mean user
    count (0 when the class is empty on average).  ``trials`` optionally
    carries the per-trial record array (dtype :data:`TRIAL_DTYPE`).
    """

    strategy: str
    throughput_mean: float
    throughput_ci95: float
    user_throughput_coop: float
    user_throughput_noncoop: float
    mode1_frequency: float
    mean_counts: tuple[float, float, float]
    n_trials: int
    discarded_trials: int
    degenerate_mode1_trials: int
    dropped_link_fraction: float
    silent_cluster_fraction: float
    trials: np.ndarray | None = field(default=None, repr=False, compare=False)


def run_campaign(config: SimConfig, n_jobs: int = 1, keep_trials: bool = False) -> SimResult:
    """Run all trials of a campaign and aggregate.

    Parameters
    ----------
    config : SimConfig
    n_jobs : int, optional
        Worker processes; results are bit-identical for any value because
        trial randomness and storage are indexed by trial.
    keep_trials : bool, optional
        Attach the per-trial record array to the result (needed for
        per-trial CSV emission).

    Returns
    -------
    SimResult
    """
    trials = config.trials
    records = np.empty(trials, dtype=TRIAL_DTYPE)
    if n_jobs <= 1:
        records[:] = _run_range((config, 0, trials))
    else:
        bounds = np.linspace(0, trials, num=min(n_jobs * 4, trials) + 1, dtype=int)
        jobs = [
            (config, int(lo), int(hi))
            for lo, hi in zip(bounds[:-1], bounds[1:])
            if hi > lo
        ]
        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            for (_, lo, hi), chunk in zip(jobs, pool.map(_run_range, jobs)):
                records[lo:hi] = chunk

    valid = records["discarded"] == 0
    kept = records[valid]
    n_valid = int(valid.sum())
    thr = kept["throughput"]
    mean = float(thr.mean()) if n_valid else math.nan
    ci95 = (
        float(1.96 * thr.std(ddof=1) / math.sqrt(n_valid)) if n_valid > 1 else 0.0
    )
    mean_coop = float(kept["n_coop"].mean()) if n_valid else math.nan
    mean_noncoop = float(kept["n_noncoop"].mean()) if n_valid else math.nan
    mean_cell = float(kept["n_cellular"].mean()) if n_valid else math.nan
    coop_band_mean = float(kept["coop_band"].mean()) if n_valid else math.nan
    noncoop_band_mean = mean - coop_band_mean if n_valid else math.nan
    b = config.plan.n_clusters

    return SimResult(
        strategy=config.strategy,
        throughput_mean=mean,
        throughput_ci95=ci95,
        user_throughput_coop=(coop_band_mean / mean_coop) if mean_coop else 0.0,
        user_throughput_noncoop=(
            (noncoop_band_mean / mean_noncoop) if mean_noncoop else 0.0
        ),
        mode1_frequency=float(kept["mode"].mean()) if n_valid else math.nan,
        mean_counts=(mean_coop, mean_noncoop, mean_cell),
        n_trials=n_valid,
        discarded_trials=trials - n_valid,
        degenerate_mode1_trials=int(kept["degenerate"].sum()),
        dropped_link_fraction=float(kept["dropped_links"].sum()) / max(1, n_valid * b),
        silent_cluster_fraction=float(kept["silent_clusters"].sum()) / max(1, n_valid * b),
        trials=records if keep_trials else None,
    )
