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

Engine: a campaign runs in blocks of trials, in two passes.  Pass 1
(:func:`_run_trial`) runs one trial at a time and makes every draw of it;
pass 2 (:func:`_rate_block`) rates the block together: zero-forcing
channels and equal-size non-cooperative link sets are stacked and each
stack is inverted or summed in one call.  Stacks are never padded, so each
matrix sees the arithmetic it would see alone, and an ill-conditioned or
singular channel takes the drop-worst-link fallback on its own.

Reproducibility contract: trial ``t`` derives all of its randomness from
``default_rng([seed, t])`` with a fixed draw order (positions, requests,
scheduling choices, fading), per-trial results live at index ``t`` of the
campaign arrays, and aggregation runs over those ordered arrays; neither
the block size nor the thread or process count can change any output bit.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple

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
    "ROLE_COOP",
    "ROLE_NONCOOP",
    "ROLE_CELLULAR",
    "drop_snapshot",
    "schedule",
    "zf_rates",
    "noncoop_rates",
    "run_campaign",
]

_COND_LIMIT = 1e8
_STRATEGIES = ("coop", "nocoop", "tdma")
_CHUNK = 128  # trials drawn (pass 1) before their link sets are rated (pass 2)

ROLE_COOP, ROLE_NONCOOP, ROLE_CELLULAR = 0, 1, 2  # int8 codes of Snapshot.roles

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

    Group indices are 0-based; ``request_counts[c, g]`` counts the requests
    for cached group ``g`` in cluster ``c``; ``roles`` holds one int8 code
    per user, :data:`ROLE_COOP`, :data:`ROLE_NONCOOP` or
    :data:`ROLE_CELLULAR`; ``mode`` is 1 iff some cached group is hit by
    every cluster (``hit_groups`` non-empty).  ``cluster_of`` and
    ``cache_group_of`` are read-only arrays shared by every snapshot of the
    same grid.
    """

    positions: np.ndarray = field(repr=False)
    cluster_of: np.ndarray = field(repr=False)
    cache_group_of: np.ndarray = field(repr=False)
    request_of: np.ndarray = field(repr=False)
    request_counts: np.ndarray = field(repr=False)
    roles: np.ndarray = field(repr=False)
    mode: int
    hit_groups: frozenset


@functools.lru_cache(maxsize=16)
def _layout(n_clusters: int, users_per_cluster: int, cluster_side_m: float):
    """Read-only per-user cluster, cached group and cell corner of a grid."""
    b, k = n_clusters, users_per_cluster
    grid = math.isqrt(b)
    cluster_of = np.repeat(np.arange(b), k)
    cache_group_of = np.tile(np.arange(k), b)
    origins = np.column_stack((np.arange(b) % grid, np.arange(b) // grid)) * cluster_side_m
    corner = origins[cluster_of]
    for array in (cluster_of, cache_group_of, corner):
        array.flags.writeable = False
    return cluster_of, cache_group_of, corner


def _drop(config: SimConfig, rng: np.random.Generator) -> Snapshot:
    plan = config.plan
    b, k = plan.n_clusters, plan.users_per_cluster
    m, d = plan.n_users, plan.cluster_side_m
    cluster_of, cache_group_of, corner = _layout(b, k, d)
    positions = rng.random((m, 2)) * d + corner

    cdf = np.cumsum(config.popularity.group_probs)
    k0 = config.popularity.group_count
    request_of = np.minimum(
        np.searchsorted(cdf, rng.random(m), side="right"), k0 - 1
    )

    counts = np.bincount(cluster_of * k0 + request_of, minlength=b * k0)
    counts = counts.reshape(b, k0)[:, :k]
    hit = (counts > 0).all(axis=0)
    role_of_request = np.full(k0, ROLE_CELLULAR, dtype=np.int8)
    role_of_request[:k] = np.where(hit, ROLE_COOP, ROLE_NONCOOP)
    hit_groups = np.flatnonzero(hit)

    return Snapshot(
        positions=positions,
        cluster_of=cluster_of,
        cache_group_of=cache_group_of,
        request_of=request_of,
        request_counts=counts,
        roles=role_of_request[request_of],
        mode=1 if hit_groups.size else 0,
        hit_groups=frozenset(hit_groups.tolist()),
    )


def drop_snapshot(config: SimConfig, trial_index: int) -> Snapshot:
    """Drop the deterministic snapshot of trial ``trial_index``.

    Equivalent to the first phase of a campaign trial: the generator is
    ``default_rng([config.seed, trial_index])`` and the draw order is
    positions, then requests.
    """
    rng = np.random.default_rng([config.seed, trial_index])
    return _drop(config, rng)


def _nth_true(mask: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Column of the ``n[r]``-th (0-based) True entry of each row ``r``."""
    return np.argmax(mask.cumsum(axis=1) > n[:, None], axis=1)


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
    receiver in every cluster.  The draws are one ``integers`` call for the
    group, then one call over the clusters' receiver counts, then one call
    over the non-empty non-cooperative pools; an array of bounds draws the
    same stream as one scalar call per cluster in cluster order.
    """
    counts = snapshot.request_counts
    b, k = counts.shape
    per_cluster = snapshot.request_of.reshape(b, k)
    users = np.arange(k)
    own = per_cluster == users  # user j requests the group it caches
    restrict = cooperation and snapshot.mode == 1

    coop_links: list[tuple[int, int]] = []
    if restrict:
        receivers = counts - own  # requesters of group g other than user g
        valid = np.flatnonzero((receivers > 0).all(axis=0))
        if valid.size:
            g = int(valid[int(rng.integers(valid.size))])
            picks = rng.integers(receivers[:, g])
            dr = _nth_true((per_cluster == g) & (users != g), picks)
            coop_links = [(c * k + g, c * k + j) for c, j in enumerate(dr.tolist())]

    roles = snapshot.roles.reshape(b, k)
    pool = ((roles == ROLE_NONCOOP) if restrict else (roles != ROLE_CELLULAR)) & ~own
    sizes = pool.sum(axis=1)
    active = np.flatnonzero(sizes)
    noncoop_links: list[tuple[int, int]] = []
    if active.size:
        j = _nth_true(pool[active], rng.integers(sizes[active]))
        noncoop_links = list(
            zip((active * k + per_cluster[active, j]).tolist(), (active * k + j).tolist())
        )
    return coop_links, noncoop_links


# A drawn link set is ``(ends, normals)``: ``ends[l]`` holds the transmitter
# and receiver positions of link ``l`` (shape (n, 2, 2)), ``normals`` the two
# standard-normal (n, n) matrices of its fading, drawn real part first.
# The kernels below take stacks of them, (T, n, 2, 2) and (T, 2, n, n).


def _ends(links, positions: np.ndarray) -> np.ndarray:
    return positions[np.array(links)]


def _fade(link_sets, positions: np.ndarray, rng: np.random.Generator) -> list:
    """Draw the fading of each link set in turn; None for an empty set.

    One ``standard_normal`` call draws every set's matrices: the generator
    fills element by element, so this is the stream of one call per matrix.
    """
    sizes = [len(links) for links in link_sets]
    if not any(sizes):
        return [None] * len(sizes)
    ends = _ends([link for links in link_sets for link in links], positions)
    normals = rng.standard_normal(sum(2 * n * n for n in sizes))
    drawn, i, j = [], 0, 0
    for n in sizes:
        drawn.append(
            (ends[i : i + n], normals[j : j + 2 * n * n].reshape(2, n, n)) if n else None
        )
        i, j = i + n, j + 2 * n * n
    return drawn


def _path_gains(ends: np.ndarray, radio: RadioParams, min_distance_m: float) -> np.ndarray:
    """Gains ``g[..., i, j]`` from transmitter ``j`` to receiver ``i``.

    Every distance is floored at ``min_distance_m``.
    """
    tx, rx = ends[..., 0, :], ends[..., 1, :]
    d = np.linalg.norm(rx[..., :, None, :] - tx[..., None, :, :], axis=-1)
    return radio.path_gain(np.maximum(d, min_distance_m))


def _zf_channel(ends, normals, radio: RadioParams, min_distance_m: float) -> np.ndarray:
    """Composite channels ``sqrt(gain / 2) * (x + i y)`` of a stack."""
    gain = _path_gains(ends, radio, min_distance_m)
    return np.sqrt(gain / 2.0) * (normals[:, 0] + 1j * normals[:, 1])


def _fading_power(normals: np.ndarray) -> np.ndarray:
    x, y = normals[:, 0], normals[:, 1]
    return (x * x + y * y) / 2.0


def _col_norm2(inv: np.ndarray) -> np.ndarray:
    return (np.abs(inv) ** 2).sum(axis=-2)


def _zf_link_rates(col_norm2: np.ndarray, p_w: float, noise_w: float) -> np.ndarray:
    return np.log2(1.0 + p_w / (noise_w * col_norm2))


def _drop_worst_links(h: np.ndarray, p_w: float, noise_w: float):
    """Zero-forcing rates of one ill-conditioned or singular channel.

    Drops the worst link (largest inverse-column norm, rate 0) and
    re-inverts until the condition number is at most the limit; returns
    None when no usable channel is left.
    """
    rates = np.zeros(h.shape[0])
    active = list(range(h.shape[0]))
    while active:
        sub = h[np.ix_(active, active)]
        cond = np.linalg.cond(sub)
        if not np.isfinite(cond):
            return None
        try:
            col_norm2 = _col_norm2(np.linalg.inv(sub))
        except np.linalg.LinAlgError:
            return None
        if cond <= _COND_LIMIT:
            rates[active] = _zf_link_rates(col_norm2, p_w, noise_w)
            return rates
        active.pop(int(np.argmax(col_norm2)))
    return None


def _zf_stack(h: np.ndarray, p_w: float, noise_w: float):
    """Zero-forcing rates of a (T, n, n) stack of composite channels.

    Returns ``(rates, usable)``: ``rates`` is (T, n) with exact zeros for
    dropped links; ``usable[t]`` is False when channel ``t`` stayed unusable
    after dropping every link.  Channels with a condition number above the
    limit (or singular) take :func:`_drop_worst_links` one at a time; the
    rest are inverted together.
    """
    rates = np.zeros(h.shape[:2])
    usable = np.ones(h.shape[0], dtype=bool)
    fast = np.linalg.cond(h) <= _COND_LIMIT
    if fast.any():
        try:
            rates[fast] = _zf_link_rates(_col_norm2(np.linalg.inv(h[fast])), p_w, noise_w)
        except np.linalg.LinAlgError:
            fast[:] = False
    for t in np.flatnonzero(~fast):
        kept = _drop_worst_links(h[t], p_w, noise_w)
        if kept is None:
            usable[t] = False
        else:
            rates[t] = kept
    return rates, usable


def _sinr_rates(ends, fading_power, radio: RadioParams, min_distance_m: float) -> np.ndarray:
    """Treated-as-noise spectral efficiencies of a stack of link sets, (T, n)."""
    received = radio.tx_power_w * (_path_gains(ends, radio, min_distance_m) * fading_power)
    signal = np.diagonal(received, axis1=-2, axis2=-1).copy()
    interference = received.sum(axis=-1) - signal
    return np.log2(1.0 + signal / (interference + radio.noise_w))


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
    if len(coop_links) == 0:
        return np.zeros(0)
    if channel is None:
        ends, normals = _fade([coop_links], positions, rng)[0]
        h = _zf_channel(ends[None], normals[None], radio, min_distance_m)
    else:
        h = np.asarray(channel, dtype=complex)[None]
    rates, usable = _zf_stack(h, radio.tx_power_w, radio.noise_w)
    if not usable[0]:
        raise SingularChannelError(
            "composite channel unusable after dropping all links"
        )
    return rates[0]


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
    if len(noncoop_links) == 0:
        return np.zeros(0)
    if fading_power is None:
        ends, normals = _fade([noncoop_links], positions, rng)[0]
        fading_power = _fading_power(normals[None])
    else:
        ends = _ends(noncoop_links, positions)
        fading_power = np.asarray(fading_power)[None]
    return _sinr_rates(ends[None], fading_power, radio, min_distance_m)[0]


def _colour_slots(links, users_per_cluster: int, grid: int) -> list[list]:
    """Split links by the reuse-4 colour of their cluster, colours in order."""
    slots: list[list] = [[], [], [], []]
    for link in links:
        row, col = divmod(link[0] // users_per_cluster, grid)
        slots[2 * (row % 2) + col % 2].append(link)
    return slots


def _tdma_throughput(bandwidth_hz: float, slot_sums) -> float:
    """Time-averaged throughput of the reuse-4 baseline for one trial.

    ``slot_sums`` are the rate sums of the four colour slots, each active
    one slot in four on the full band.
    """
    total = 0.0
    for rate_sum in slot_sums:
        total += bandwidth_hz * rate_sum
    return total / 4.0


class _Drawn(NamedTuple):
    """Pass 1 of a trial: its record's counters and its drawn link sets."""

    mode: int
    n_coop: int
    n_noncoop: int
    n_cellular: int
    degenerate: int
    silent_clusters: int
    split: bool  # cooperation in Mode 1: the band is split
    zf: tuple | None  # the cooperative link set
    nc: list  # the non-cooperative set, or the four tdma colour slots


_COUNTERS = _Drawn._fields[:6]  # copied into the record as they are


def _run_trial(config: SimConfig, trial_index: int) -> _Drawn:
    """Pass 1 of a trial: every draw of its stream, in the documented order."""
    rng = np.random.default_rng([config.seed, trial_index])
    snapshot = _drop(config, rng)
    cooperation = config.strategy == "coop" and config.eta > 0.0
    coop_links, noncoop_links = schedule(snapshot, rng, cooperation=cooperation)
    split = cooperation and snapshot.mode == 1

    if config.strategy == "tdma":
        grid = math.isqrt(config.plan.n_clusters)
        sets = _colour_slots(noncoop_links, config.plan.users_per_cluster, grid)
    else:
        sets = [noncoop_links]
    zf, *nc = _fade([coop_links] + sets, snapshot.positions, rng)

    n_coop, n_noncoop, n_cellular = np.bincount(snapshot.roles, minlength=3).tolist()
    return _Drawn(
        snapshot.mode, n_coop, n_noncoop, n_cellular,
        int(split and not coop_links), config.plan.n_clusters - len(noncoop_links),
        split, zf, nc,
    )


def _stacks(drawn):
    """Group the non-empty drawn link sets by link count.

    Yields ``(indices, ends, normals)`` per count, the arrays stacked in
    index order.
    """
    groups: dict[int, list[int]] = {}
    for i, link_set in enumerate(drawn):
        if link_set is not None:
            groups.setdefault(len(link_set[0]), []).append(i)
    for idx in groups.values():
        yield (
            idx,
            np.stack([drawn[i][0] for i in idx]),
            np.stack([drawn[i][1] for i in idx]),
        )


def _rate_block(config: SimConfig, trials: list[_Drawn], out: np.ndarray) -> None:
    """Pass 2: rate a block of drawn trials together and fill their records.

    Link sets of equal size are stacked, so each matrix sees the same
    arithmetic as when it is rated alone; the per-trial sums then combine
    in the order of a single trial.
    """
    radio, floor = config.radio, config.min_pairing_distance_m
    w, eta = radio.bandwidth_hz, config.eta
    n = len(trials)
    block = _Drawn(*zip(*trials))

    zf_sum = np.zeros(n)
    zf_dropped = np.zeros(n, dtype=np.int64)
    usable = np.ones(n, dtype=bool)
    for idx, ends, normals in _stacks(block.zf):
        h = _zf_channel(ends, normals, radio, floor)
        rates, ok = _zf_stack(h, radio.tx_power_w, radio.noise_w)
        usable[idx] = ok
        zf_sum[idx] = rates.sum(axis=1)
        zf_dropped[idx] = np.count_nonzero(rates == 0.0, axis=1)

    nc_drawn = [link_set for sets in block.nc for link_set in sets]
    nc_sum = np.zeros(len(nc_drawn))
    for idx, ends, normals in _stacks(nc_drawn):
        rates = _sinr_rates(ends, _fading_power(normals), radio, floor)
        nc_sum[idx] = rates.sum(axis=1)

    per_trial = len(nc_drawn) // n
    nc_sum, zf_sum, zf_dropped = nc_sum.tolist(), zf_sum.tolist(), zf_dropped.tolist()
    throughput, coop_band, dropped = [], [], []
    for i, split in enumerate(block.split):
        sums = nc_sum[i * per_trial : (i + 1) * per_trial]
        band, lost = 0.0, 0
        if config.strategy == "tdma":
            value = _tdma_throughput(w, sums)
        elif not usable[i]:
            value = band = math.nan
        else:
            share = 1.0  # Mode 0 or eta=0: the whole band is non-coop
            if split:
                if block.zf[i] is not None:
                    lost = zf_dropped[i]
                    band = eta * w * zf_sum[i]
                share = 1.0 - eta
            value = band + share * w * sums[0]
        throughput.append(value)
        coop_band.append(band)
        dropped.append(lost)

    for name in _COUNTERS:
        out[name] = getattr(block, name)
    out["throughput"] = throughput
    out["coop_band"] = coop_band
    out["dropped_links"] = dropped
    out["discarded"] = ~usable


def _run_range(args) -> np.ndarray:
    """Records of trials ``start .. stop - 1``, in blocks of ``_CHUNK``."""
    config, start, stop = args
    out = np.empty(stop - start, dtype=TRIAL_DTYPE)
    for lo in range(start, stop, _CHUNK):
        hi = min(lo + _CHUNK, stop)
        trials = [_run_trial(config, t) for t in range(lo, hi)]
        _rate_block(config, trials, out[lo - start : hi - start])
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
