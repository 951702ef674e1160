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

Engine: a campaign runs in blocks of ``_CHUNK`` trials, in two passes.
Pass 1 keeps the block's generators alive and runs four stages; the stages
that draw run per trial, the others per block:

1. per trial, the positions, the request uniforms and the scheduling
   uniforms, in one ``random`` call (:func:`_drop_block`);
2. per block, the requested groups by a bucket table (:func:`_categorical`),
   then the request counts, hit groups, modes and roles;
3. per block, the links the scheduling uniforms pick (:func:`_pick_links`),
   the cooperative groups only for the trials that cooperate;
4. per trial, the fading of every link set of the trial (:func:`_rate_block`).

Pass 2 rates the block together: zero-forcing channels and equal-size
non-cooperative link sets are gathered from the block arrays, stacked, and
each stack is inverted or summed in one call.  Stacks are never padded, so
each matrix sees the arithmetic it would see alone, and an ill-conditioned
or singular channel takes the drop-worst-link fallback on its own.  Link
distances are ``sqrt(dx * dx + dy * dy)``, the floats of ``np.linalg.norm``
without its copies (:func:`_path_gains`), and the rating kernels work in
place, in the order of their formulas, so they hold few stack-sized arrays.
Stages 1-4 and pass 2 are the rating step (:func:`_rate_block`); a campaign
turns its output into trial records (:func:`_run_block`).  The same engine
serves the two snapshot measurements, which read the first ``trials``
snapshots of a config: :func:`snapshot_counts` runs stages 1 and 2 only,
and :func:`link_rate_gap` runs the rating step.

Reproducibility contract: trial ``t`` derives all of its randomness from
one generator with a fixed draw order (positions, requests, scheduling
uniforms, fading), per-trial results live at index ``t`` of the campaign
arrays, and aggregation runs over those ordered arrays; neither the block
size nor the thread or process count can change any output bit.  Every
trial draws the same ``1 + 2B`` scheduling uniforms whatever its strategy
and mode, so ``nocoop`` and ``coop`` at ``eta = 0`` draw the same streams.
Snapshot ``t`` of :func:`snapshot_counts` and :func:`link_rate_gap` is
campaign trial ``t``, drawn from the same generator; there is no other
stream.  The block seeder :func:`_generators` builds every generator of
the module: it runs numpy's SeedSequence hash over a whole block, one call
per source word, and trial ``t``'s generator is state for state
``numpy.random.default_rng([seed, t])``; an oracle test pins it against
numpy, so a change to numpy's seeding fails it, not the streams.
Zero-forcing takes a channel's exact condition number only when a
Frobenius-norm screen cannot decide (:func:`_zf_stack`).  The screen
sums the squared real and imaginary parts of the channel stack; its
rounding, under 1e-8 relative, is far inside the factor 64 its margin
leaves on the squared bound.
"""

from __future__ import annotations

import functools
import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .catalog import PopularityModel
from .clusters import ClusterPlan
from .errors import ConfigurationError
from .rates import RadioParams

__all__ = [
    "SimConfig",
    "SimResult",
    "TRIAL_DTYPE",
    "ROLE_COOP",
    "ROLE_NONCOOP",
    "ROLE_CELLULAR",
    "run_campaign",
    "link_rate_gap",
    "snapshot_counts",
]

_COND_LIMIT = 1e8
# Smallest path gain accepted, at the hotspot's longest link.  A squared
# zero-forcing inverse-column norm grows as 1 / gain (times fading and
# conditioning factors), so from here up it stays far inside the float
# range; gains near underflow would overflow it or leave every channel
# singular.
_MIN_PATH_GAIN_LOG10 = -150.0
_STRATEGIES = ("coop", "nocoop", "tdma")
_CHUNK = 128  # trials drawn (pass 1) before their link sets are rated (pass 2)
_BUCKETS = 1024  # of the request draw's table, a power of two so u * _BUCKETS is exact

ROLE_COOP, ROLE_NONCOOP, ROLE_CELLULAR = 0, 1, 2  # int8 role code of each user

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


def _check_int(name: str, value, low: int) -> None:
    """Refuse a value that is not an integer of at least ``low``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise ConfigurationError("%s must be an integer >= %d, got %r" % (name, low, value))


def _is_real(value) -> bool:
    """True for a real number other than a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


@dataclass(frozen=True)
class SimConfig:
    """Immutable campaign description.

    ``strategy`` is one of ``"coop"``, ``"nocoop"``, ``"tdma"``; ``eta`` is
    the cooperative band fraction in ``[0, 1]`` (used by ``coop``, checked
    for every strategy).  ``min_pairing_distance_m`` floors every link
    distance, mirroring the near-field truncation of the analytic moments.
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
        side = self.plan.hotspot_side_m
        if not math.isfinite(2.0 * side * side):
            raise ConfigurationError(
                "hotspot_side_m (%r) is too large: a squared link distance overflows" % side
            )
        _check_int("trials", self.trials, 1)
        _check_int("seed", self.seed, 0)
        if not (_is_real(self.eta) and 0.0 <= self.eta <= 1.0):
            raise ConfigurationError("eta must be a real number in [0, 1], got %r" % (self.eta,))
        if self.plan.users_per_cluster > self.popularity.group_count:
            raise ConfigurationError(
                "users_per_cluster (%d) exceeds the catalog's group count (%d)"
                % (self.plan.users_per_cluster, self.popularity.group_count)
            )
        floor = self.min_pairing_distance_m
        if not (_is_real(floor) and 0.0 <= floor < math.inf):
            raise ConfigurationError(
                "min_pairing_distance_m must be a finite real number >= 0, got %r" % (floor,)
            )
        radio = self.radio
        longest = max(math.sqrt(2.0) * side, floor)
        gain_log10 = -radio.path_loss_intercept_db / 10.0 - radio.alpha * math.log10(longest)
        if not gain_log10 >= _MIN_PATH_GAIN_LOG10:
            raise ConfigurationError(
                "path_loss_intercept_db, alpha, hotspot_side_m and min_pairing_distance_m "
                "(%r, %r, %r, %r) give a path gain of 1e%.4g at the longest link, below "
                "1e%g: the simulator's zero-forcing norms would overflow"
                % (radio.path_loss_intercept_db, radio.alpha, side, floor, gain_log10,
                   _MIN_PATH_GAIN_LOG10)
            )


@functools.lru_cache(maxsize=16)
def _layout(n_clusters: int, users_per_cluster: int, cluster_side_m: float):
    """Read-only per-user cluster and cell corner of a grid."""
    b, k = n_clusters, users_per_cluster
    grid = math.isqrt(b)
    cluster_of = np.repeat(np.arange(b), k)
    origins = np.column_stack((np.arange(b) % grid, np.arange(b) // grid)) * cluster_side_m
    corner = origins[cluster_of]
    for array in (cluster_of, corner):
        array.flags.writeable = False
    return cluster_of, corner


class _Drops(NamedTuple):
    """Stages 1 and 2 of a block of ``T`` trials (``M`` users, ``B`` x ``K`` grid)."""

    positions: np.ndarray  # (T, M, 2)
    request_of: np.ndarray  # (T, M) requested group, 0-based
    counts: np.ndarray  # (T, B, K) requests per cluster and cached group
    hit: np.ndarray  # (T, K) cached groups requested in every cluster
    roles: np.ndarray  # (T, M) int8 role codes
    choices: np.ndarray  # (T, 1 + 2B) scheduling uniforms, see :func:`_pick_links`


# numpy.random.SeedSequence's hash constants and pool size.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32, _POOL = 0xFFFFFFFF, 4


def _words(n: int) -> list[int]:
    """``n`` as SeedSequence encodes it: little-endian 32-bit words, ``0`` as one."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    """The ``(n + 1, 1)`` uint32 constants of ``n`` hash calls, call ``i`` taking ``i, i + 1``."""
    consts = [init]
    for _ in range(n):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)[:, None]


def _seed_states(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(e).generate_state(4, np.uint64)`` of every column ``e``.

    ``entropy`` is ``(n, T)`` uint32, a row per word.  The ``(4, T)`` pool
    mixes in wrapping uint32 arithmetic, one call per source word, with
    the constants in the order numpy's SeedSequence takes them.
    """
    n = len(entropy)
    a = _hash_constants(_INIT_A, _MULT_A, _POOL * max(n, _POOL))
    b = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL)

    def hashmix(value, consts, i, j):  # hash calls i .. j - 1
        value = (value ^ consts[i:j]) * consts[i + 1 : j + 1]
        return value ^ (value >> 16)

    def mix(x, y):
        r = _MIX_L * x - _MIX_R * y
        return r ^ (r >> 16)

    pool = np.zeros((_POOL, entropy.shape[1]), dtype=np.uint32)
    pool[:n] = entropy[:_POOL]
    pool = hashmix(pool, a, 0, _POOL)
    for src in range(_POOL):  # calls 4 + 3 src .. 6 + 3 src, one per destination
        dst, at = [i for i in range(_POOL) if i != src], _POOL + (_POOL - 1) * src
        pool[dst] = mix(pool[dst], hashmix(pool[src], a, at, at + _POOL - 1))
    for src in range(_POOL, n):  # calls 4 src .. 4 src + 3
        pool = mix(pool, hashmix(entropy[src], a, _POOL * src, _POOL * (src + 1)))
    state = hashmix(np.tile(pool, (2, 1)), b, 0, 2 * _POOL).astype(np.uint64)
    return (state[0::2] | state[1::2] << 32).T.copy()  # PCG64 reads each row's memory


class _Seeded(np.random.bit_generator.ISeedSequence):
    """Hands one row of :func:`_seed_states` to ``PCG64``, which asks for 4 uint64 words."""

    def __init__(self, state: np.ndarray) -> None:
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


def _generators(config: SimConfig, start: int, stop: int) -> list:
    """The generators of trials ``start .. stop - 1``, entropy ``[seed, t]``.

    This is the block seeder of the module's reproducibility contract.  A
    block is split where the word count of ``t`` changes, at multiples of
    ``2**32``; the seed's words are fixed rows.
    """
    head = _words(config.seed)
    rngs = []
    while start < stop:
        n_t = len(_words(start))  # the same up to the next multiple of 2**(32 * n_t)
        end = min(stop, 1 << 32 * n_t)
        size = end - start
        entropy = np.empty((len(head) + n_t, size), dtype=np.uint32)
        entropy[: len(head)] = np.array(head, dtype=np.uint32)[:, None]
        carry = np.arange(size, dtype=np.uint64)
        for j in range(n_t):  # the words of t = start + i, carrying between them
            limb = carry + (start >> 32 * j & _MASK32)
            entropy[len(head) + j] = limb & _MASK32
            carry = limb >> 32
        rngs += [np.random.Generator(np.random.PCG64(_Seeded(s))) for s in _seed_states(entropy)]
        start = end
    return rngs


def _categorical(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``min(searchsorted(cdf, u, side="right"), len(cdf) - 1)`` by table lookup.

    That is the count of the edges ``cdf[:-1]`` at most ``u``.  A key in
    bucket ``j <= u * _BUCKETS < j + 1`` counts the edges at most
    ``j / _BUCKETS``, unless an edge lies inside the bucket; the table marks
    those buckets -1, and only their keys are searched.
    """
    edges = cdf[:-1]
    below = np.searchsorted(edges, np.arange(_BUCKETS + 1) / _BUCKETS, side="right")
    table = np.where(below[1:] == below[:-1], below[:-1], -1)
    out = table[(u * _BUCKETS).astype(np.intp)]
    redo = np.flatnonzero(out < 0)
    out.flat[redo] = np.searchsorted(edges, u.flat[redo], side="right")
    return out


def _drop_block(config: SimConfig, rngs) -> _Drops:
    """Drop one snapshot per generator.

    Stage 1 (per trial): one ``random`` call fills the ``M x 2`` positions,
    the ``M`` request uniforms and the ``1 + 2B`` scheduling uniforms, the
    stream of the three calls in turn.  Stage 2 (per block): one
    :func:`_categorical` lookup and one ``bincount`` over (trial, cluster,
    group) classify every trial at once.
    """
    plan, popularity = config.plan, config.popularity
    b, k, m, d = plan.n_clusters, plan.users_per_cluster, plan.n_users, plan.cluster_side_m
    cluster_of, corner = _layout(b, k, d)
    n = len(rngs)
    draws = np.empty((n, 3 * m + 1 + 2 * b))
    for rng, row in zip(rngs, draws):
        rng.random(out=row)
    positions = np.multiply(draws[:, : 2 * m].reshape(n, m, 2), d)
    positions += corner

    k0 = popularity.group_count
    request_of = _categorical(np.cumsum(popularity.group_probs), draws[:, 2 * m : 3 * m])
    trial = np.arange(n)[:, None]
    cell = trial * b + cluster_of  # (trial, cluster) of every user
    counts = np.bincount((cell * k0 + request_of).ravel(), minlength=n * b * k0)
    counts = counts.reshape(n, b, k0)[:, :, :k]
    hit = (counts > 0).all(axis=1)
    role_of_request = np.full((n, k0), ROLE_CELLULAR, dtype=np.int8)
    role_of_request[:, :k] = np.where(hit, ROLE_COOP, ROLE_NONCOOP)
    roles = np.take(role_of_request, trial * k0 + request_of)
    # a copy, so the block's draws are freed before the links are rated
    return _Drops(positions, request_of, counts, hit, roles, draws[:, 3 * m :].copy())


def _nth_true(mask: np.ndarray, counts: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Column of the ``n[r]``-th (0-based) True entry of each row ``r``.

    Row ``r`` holds ``counts[r]`` Trues, at least one, and ``n[r] < counts[r]``.
    """
    first = np.cumsum(counts) - counts  # rank of each row's first True
    return np.flatnonzero(mask)[first + n] % mask.shape[1]


class _Links(NamedTuple):
    """Stage 3 of a block: its scheduled links.

    Users are numbered within their cluster.  Trial ``coop[i]`` sends group
    ``group[i]`` from user ``group[i]`` of each cluster ``c`` to user
    ``coop_rx[i, c]``.  Non-cooperative link ``l`` of trial ``nc_trial[l]``
    runs in cluster ``nc_cluster[l]`` from user ``nc_tx[l]`` to user
    ``nc_rx[l]``; links are in trial, then cluster order.
    """

    coop: np.ndarray
    group: np.ndarray
    coop_rx: np.ndarray
    nc_trial: np.ndarray
    nc_cluster: np.ndarray
    nc_tx: np.ndarray
    nc_rx: np.ndarray


def _below(u: np.ndarray, h: np.ndarray) -> np.ndarray:
    """``floor(u * h)``: a choice in ``[0, h)`` from each uniform ``u`` in ``[0, 1)``.

    ``u * h`` rounds below ``h`` even for the largest double below 1.  Each
    of the ``h`` outcomes has a probability within ``2**-52`` of ``1 / h``
    over the ``2**53`` doubles ``random`` returns, so the rule is within
    ``h * 2**-53`` of uniform in total variation.
    """
    return (u * h).astype(np.int64)


def _pick_links(request_of, counts, roles, restrict, choices) -> _Links:
    """Schedule a block (stage 3) from each trial's scheduling uniforms.

    ``restrict[t]`` is cooperation in Mode 1: trial ``t`` forms a cooperative
    set, and its non-cooperative pools leave the hit groups out.  Row ``t``
    of ``choices`` holds trial ``t``'s ``1 + 2B`` uniforms, each taken
    below its bound by :func:`_below`: the group among the valid ones, then
    the receiver in each cluster, then the user of each cluster's pool.  A
    uniform whose choice is not needed goes unused, so every trial draws
    the same count.  The links of every trial are picked together with
    :func:`_nth_true`.  A user never serves itself: the receivers of group
    ``g`` are its requesters other than user ``g``, and a Mode-1 trial in
    which no hit group has a receiver in every cluster forms no cooperative
    set.
    """
    n, b, k = counts.shape
    per_cluster = request_of.reshape(n, b, k)
    users = np.arange(k)
    own = per_cluster == users  # user j requests the group it caches
    rows = np.flatnonzero(restrict)
    receivers = counts[rows] - own[rows]  # requesters of group g other than user g
    valid = (receivers > 0).all(axis=1)  # (rows, k) groups a set can send
    roles = roles.reshape(n, b, k)
    in_pool = np.where(restrict[:, None, None], roles == ROLE_NONCOOP, roles != ROLE_CELLULAR)
    pool = in_pool & ~own
    sizes = pool.sum(axis=2)
    active = sizes > 0

    n_valid = valid.sum(axis=1)
    sets = np.flatnonzero(n_valid)
    coop = rows[sets]
    group = _nth_true(valid[sets], n_valid[sets], _below(choices[coop, 0], n_valid[sets]))
    bounds = np.zeros((n, 2 * b), dtype=np.int64)  # the receivers', then the pools' bounds
    bounds[coop, :b] = receivers[sets, :, group]
    bounds[:, b:] = sizes
    picks = _below(choices[:, 1:], bounds)

    g = group[:, None, None]
    eligible = ((per_cluster[coop] == g) & (users != g)).reshape(-1, k)
    coop_rx = _nth_true(eligible, bounds[coop, :b].ravel(), picks[coop, :b].ravel()).reshape(-1, b)
    nc_trial, nc_cluster = np.nonzero(active)
    nc_rx = _nth_true(pool[active], sizes[active], picks[:, b:][active])
    nc_tx = per_cluster[nc_trial, nc_cluster, nc_rx]
    return _Links(coop, group, coop_rx, nc_trial, nc_cluster, nc_tx, nc_rx)


# A link set is rated from its ends, ``ends[..., l, :, :]`` holding the
# transmitter and receiver positions of link ``l``, and from two standard
# normal (n, n) matrices of fading, drawn real part first.  The kernels below
# take stacks of them, (T, n, 2, 2) and (T, 2, n, n).


def _path_gains(ends: np.ndarray, radio: RadioParams, min_distance_m: float) -> np.ndarray:
    """Gains ``g[..., i, j]`` from transmitter ``j`` to receiver ``i``.

    Every distance, ``sqrt(dx * dx + dy * dy)``, is floored at ``min_distance_m``.
    """
    x, y = ends[..., 0], ends[..., 1]  # (..., n, 2): transmitter, then receiver
    d = np.square(x[..., :, None, 1] - x[..., None, :, 0])
    d += np.square(y[..., :, None, 1] - y[..., None, :, 0])
    return radio.path_gain(np.maximum(np.sqrt(d, out=d), min_distance_m, out=d))


def _zf_channel(ends, normals, radio: RadioParams, min_distance_m: float) -> np.ndarray:
    """Composite channels ``sqrt(gain / 2) * (x + i y)`` of a stack.

    The gains are halved and rooted in place, and ``g * x`` and ``g * y``
    go straight into the real and imaginary parts of one complex stack:
    the floats of the complex product, whose cross terms multiply zeros.
    """
    g = _path_gains(ends, radio, min_distance_m)
    np.sqrt(np.divide(g, 2.0, out=g), out=g)
    h = np.empty(g.shape, dtype=complex)
    np.multiply(g, normals[:, 0], out=h.real)
    np.multiply(g, normals[:, 1], out=h.imag)
    return h


def _fading_power(normals: np.ndarray) -> np.ndarray:
    power = np.square(normals[:, 0])
    power += np.square(normals[:, 1])
    return np.divide(power, 2.0, out=power)


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
    """Zero-forcing rates of a C-contiguous (T, n, n) stack of composite channels.

    Returns ``(rates, usable)``: ``rates`` is (T, n) with exact zeros for
    dropped links; ``usable[t]`` is False when channel ``t`` stayed unusable
    after dropping every link.  The stack is inverted together, and a
    channel takes these rates when ``||H||_F ||H^-1||_F``, an upper bound
    on its condition number, is at most an eighth of the limit.
    ``||H||_F^2`` sums the squares of the stack's float64 view, the real
    and imaginary parts, within a few ulps; the computed ``||H^-1||_F^2``
    is within about ``cond * 2**-52``, under 3e-9 relative wherever the
    screen can pass.  Both sit far inside the factor 64 the margin leaves
    on the squared bound.  The others, and every channel of a stack with a
    singular matrix, take :func:`_drop_worst_links` and its exact condition
    number one at a time.
    """
    rates = np.zeros(h.shape[:2])
    usable = np.ones(h.shape[0], dtype=bool)
    try:
        col_norm2 = _col_norm2(np.linalg.inv(h))
        parts = h.view(np.float64)  # (T, n, 2n): real, imaginary, real, ...
        frob2 = np.einsum("tij,tij->t", parts, parts)
        fast = frob2 * col_norm2.sum(axis=1) <= (_COND_LIMIT / 8) ** 2
        if fast.all():
            return _zf_link_rates(col_norm2, p_w, noise_w), usable
        rates[fast] = _zf_link_rates(col_norm2[fast], p_w, noise_w)
    except np.linalg.LinAlgError:
        fast = np.zeros(len(h), dtype=bool)
    for t in np.flatnonzero(~fast):
        kept = _drop_worst_links(h[t], p_w, noise_w)
        if kept is None:
            usable[t] = False
        else:
            rates[t] = kept
    return rates, usable


def _sinr_rates(ends, fading_power, radio: RadioParams, min_distance_m: float) -> np.ndarray:
    """Treated-as-noise spectral efficiencies of a stack of link sets, (T, n)."""
    received = _path_gains(ends, radio, min_distance_m)
    received *= fading_power
    received *= radio.tx_power_w
    signal = np.diagonal(received, axis1=-2, axis2=-1).copy()
    interference = received.sum(axis=-1) - signal
    return np.log2(1.0 + signal / (interference + radio.noise_w))


def _tdma_throughput(bandwidth_hz: float, slot_sums: np.ndarray) -> np.ndarray:
    """Time-averaged throughput of the reuse-4 baseline, one per trial.

    ``slot_sums[t]`` are the rate sums of trial ``t``'s four colour slots,
    each active one slot in four on the full band.
    """
    total = np.zeros(len(slot_sums))
    for rate_sum in slot_sums.T:
        total += bandwidth_hz * rate_sum
    return total / 4.0


def _block_ends(positions: np.ndarray, trial: np.ndarray, tx, rx) -> np.ndarray:
    """Ends ``(..., n, 2, 2)`` of the links ``tx -> rx`` of ``trial``."""
    return positions[trial[..., None], np.stack((tx, rx), axis=-1)]


def _normals_at(normals: np.ndarray, offsets: np.ndarray, n: int) -> np.ndarray:
    """The ``(len(offsets), 2, n, n)`` fading normals stored from ``offsets``."""
    rows = np.lib.stride_tricks.sliding_window_view(normals, 2 * n * n)
    return rows[offsets].reshape(-1, 2, n, n)


class _Rated(NamedTuple):
    """Stages 1-4 and pass 2 of a block of ``T`` trials, ``S`` link sets each.

    ``S`` is 4 for ``tdma`` (the colour slots) and 1 otherwise.  A trial
    without a cooperative set, or whose channel stayed unusable, has a
    zero-forcing rate sum of 0; an unusable channel counts all its links as
    dropped.
    """

    drops: _Drops
    split: np.ndarray  # (T,) cooperation in Mode 1: the band is split
    has_zf: np.ndarray  # (T,) a cooperative set was scheduled
    zf_sum: np.ndarray  # (T,) zero-forcing rate sum
    zf_dropped: np.ndarray  # (T,) zero-forcing links of rate 0
    usable: np.ndarray  # (T,) False when the channel stayed unusable
    nc_sum: np.ndarray  # (T, S) non-cooperative rate sum of each set
    nc_links: np.ndarray  # (T, S) links of each set


def _rate_block(config: SimConfig, rngs) -> _Rated:
    """Draw, schedule and rate one trial per generator.

    Pass 1 runs stages 1-3 (:func:`_drop_block`, :func:`_pick_links`), then
    stage 4: each trial draws the fading of all its link sets in one
    ``standard_normal`` call, cooperative set first, then the
    non-cooperative set or the four tdma colour slots in colour order.
    Pass 2 stacks the link sets of equal size, so each matrix sees the
    arithmetic it would see alone.
    """
    plan, radio = config.plan, config.radio
    b, k = plan.n_clusters, plan.users_per_cluster
    n = len(rngs)
    drops = _drop_block(config, rngs)
    split = drops.hit.any(axis=1) & (config.strategy == "coop" and config.eta > 0.0)
    links = _pick_links(drops.request_of, drops.counts, drops.roles, split, drops.choices)

    n_slots = 4 if config.strategy == "tdma" else 1
    if n_slots == 4:
        grid = math.isqrt(b)
        row, col = np.divmod(links.nc_cluster, grid)
        slot = links.nc_trial * 4 + 2 * (row % 2) + col % 2
    else:
        slot = links.nc_trial
    order = np.argsort(slot, kind="stable")  # each set's links together, in cluster order
    set_size = np.bincount(slot, minlength=n * n_slots)
    has_zf = np.zeros(n, dtype=bool)
    has_zf[links.coop] = True
    set_draws = 2 * set_size.reshape(n, n_slots) ** 2
    zf_draws = np.where(has_zf, 2 * b * b, 0)
    trial_draws = zf_draws + set_draws.sum(axis=1)
    trial_end = np.cumsum(trial_draws)
    trial_start = trial_end - trial_draws
    normals = np.empty(trial_end[-1])
    for rng, lo, hi in zip(rngs, trial_start.tolist(), trial_end.tolist()):
        if hi > lo:
            rng.standard_normal(out=normals[lo:hi])
    set_start = (trial_start + zf_draws)[:, None] + np.cumsum(set_draws, axis=1) - set_draws

    floor, cells = config.min_pairing_distance_m, np.arange(b) * k
    zf_sum = np.zeros(n)
    zf_dropped = np.zeros(n, dtype=np.int64)
    usable = np.ones(n, dtype=bool)
    if links.coop.size:
        ends = _block_ends(
            drops.positions, links.coop[:, None],
            cells + links.group[:, None], cells + links.coop_rx,
        )
        h = _zf_channel(ends, _normals_at(normals, trial_start[links.coop], b), radio, floor)
        rates, ok = _zf_stack(h, radio.tx_power_w, radio.noise_w)
        usable[links.coop] = ok
        zf_sum[links.coop] = rates.sum(axis=1)
        zf_dropped[links.coop] = np.count_nonzero(rates == 0.0, axis=1)

    tx = (links.nc_cluster * k + links.nc_tx)[order]
    rx = (links.nc_cluster * k + links.nc_rx)[order]
    first_link = np.cumsum(set_size) - set_size  # of each set, in ``order``
    nc_sum = np.zeros(n * n_slots)
    for size in np.unique(set_size[set_size > 0]).tolist():
        sets = np.flatnonzero(set_size == size)
        idx = first_link[sets, None] + np.arange(size)
        ends = _block_ends(drops.positions, sets[:, None] // n_slots, tx[idx], rx[idx])
        power = _fading_power(_normals_at(normals, set_start.ravel()[sets], size))
        nc_sum[sets] = _sinr_rates(ends, power, radio, floor).sum(axis=1)
    return _Rated(
        drops, split, has_zf, zf_sum, zf_dropped, usable,
        nc_sum.reshape(n, n_slots), set_size.reshape(n, n_slots),
    )


def _run_block(config: SimConfig, start: int, out: np.ndarray) -> None:
    """Fill the records of trials ``start .. start + len(out) - 1``.

    The rate sums are combined in the order of a single trial.
    """
    rated = _rate_block(config, _generators(config, start, start + len(out)))
    usable, split = rated.usable, rated.split
    w, eta = config.radio.bandwidth_hz, config.eta
    if config.strategy == "tdma":
        out["throughput"] = _tdma_throughput(w, rated.nc_sum)
        out["coop_band"] = 0.0
        out["dropped_links"] = 0
    else:
        coop_band = eta * w * rated.zf_sum
        # Mode 0 or eta = 0: the whole band is non-cooperative
        share = np.where(split, 1.0 - eta, 1.0)
        throughput = coop_band + share * w * rated.nc_sum[:, 0]
        throughput[~usable] = coop_band[~usable] = math.nan
        out["throughput"] = throughput
        out["coop_band"] = coop_band
        out["dropped_links"] = np.where(usable, rated.zf_dropped, 0)
    roles = rated.drops.roles
    n_coop = np.count_nonzero(roles == ROLE_COOP, axis=1)
    n_cellular = np.count_nonzero(roles == ROLE_CELLULAR, axis=1)
    out["mode"] = rated.drops.hit.any(axis=1)
    out["n_coop"] = n_coop
    out["n_noncoop"] = config.plan.n_users - n_coop - n_cellular  # every user has one role
    out["n_cellular"] = n_cellular
    out["degenerate"] = split & ~rated.has_zf
    out["silent_clusters"] = config.plan.n_clusters - rated.nc_links.sum(axis=1)
    out["discarded"] = ~usable


def _run_range(args) -> np.ndarray:
    """Records of trials ``start .. stop - 1``, in blocks of ``_CHUNK``."""
    config, start, stop = args
    out = np.empty(stop - start, dtype=TRIAL_DTYPE)
    for lo in range(start, stop, _CHUNK):
        _run_block(config, lo, out[lo - start : min(lo + _CHUNK, stop) - start])
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
        Worker processes, an integer of at least 1, capped at the CPU count
        and at the number of trial ranges; results are bit-identical for any
        value because trial randomness and storage are indexed by trial.
    keep_trials : bool, optional
        Attach the per-trial record array to the result (needed for
        per-trial CSV emission).

    Returns
    -------
    SimResult
    """
    _check_int("n_jobs", n_jobs, 1)
    trials = config.trials
    records = np.empty(trials, dtype=TRIAL_DTYPE)
    if n_jobs == 1:
        records[:] = _run_range((config, 0, trials))
    else:
        bounds = np.linspace(0, trials, num=min(n_jobs * 4, trials) + 1, dtype=int)
        jobs = [(config, int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
        workers = min(n_jobs, len(jobs), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for (_, lo, hi), chunk in zip(jobs, pool.map(_run_range, jobs)):
                records[lo:hi] = chunk

    valid = records["discarded"] == 0
    n_valid = int(valid.sum())
    kept = records if n_valid == trials else records[valid]
    # Throughputs and their coop-band parts are averaged at the scale 2**-e,
    # e the binary exponent of the largest throughput: exact, and a sum near
    # the top of the float range cannot overflow.
    e = int(np.frexp(np.abs(kept["throughput"]).max())[1]) if n_valid else 0
    thr = np.ldexp(kept["throughput"], -e)
    mean = float(np.ldexp(thr.mean(), e)) if n_valid else math.nan
    ci95 = float(np.ldexp(1.96 * thr.std(ddof=1) / math.sqrt(n_valid), e)) if n_valid > 1 else 0.0
    mean_coop = float(kept["n_coop"].mean()) if n_valid else math.nan
    mean_noncoop = float(kept["n_noncoop"].mean()) if n_valid else math.nan
    mean_cell = float(kept["n_cellular"].mean()) if n_valid else math.nan
    band = np.ldexp(kept["coop_band"], -e)
    coop_band_mean = float(np.ldexp(band.mean(), e)) if n_valid else math.nan
    noncoop_band_mean = mean - coop_band_mean if n_valid else math.nan
    b = config.plan.n_clusters

    return SimResult(
        strategy=config.strategy,
        throughput_mean=mean,
        throughput_ci95=ci95,
        user_throughput_coop=(coop_band_mean / mean_coop) if mean_coop else 0.0,
        user_throughput_noncoop=(noncoop_band_mean / mean_noncoop) if mean_noncoop else 0.0,
        mode1_frequency=float(kept["mode"].mean()) if n_valid else math.nan,
        mean_counts=(mean_coop, mean_noncoop, mean_cell),
        n_trials=n_valid,
        discarded_trials=trials - n_valid,
        degenerate_mode1_trials=int(kept["degenerate"].sum()),
        dropped_link_fraction=float(kept["dropped_links"].sum()) / max(1, n_valid * b),
        silent_cluster_fraction=float(kept["silent_clusters"].sum()) / max(1, n_valid * b),
        trials=records if keep_trials else None,
    )


def snapshot_counts(config: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """Modes and cooperative-user counts of the first ``config.trials`` snapshots.

    Snapshot ``t`` is the drop of campaign trial ``t`` (stages 1 and 2 only).
    Returns the int8 modes (1 in Mode 1) and the int16 counts.
    """
    n = config.trials
    modes = np.empty(n, dtype=np.int8)
    coops = np.empty(n, dtype=np.int16)
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        drops = _drop_block(config, _generators(config, lo, hi))
        modes[lo:hi] = drops.hit.any(axis=1)
        coops[lo:hi] = np.count_nonzero(drops.roles == ROLE_COOP, axis=1)
    return modes, coops


def link_rate_gap(config: SimConfig) -> tuple[float, int, float, int]:
    """Fading-averaged link rates of the first ``config.trials`` snapshots.

    Snapshot ``t`` is campaign trial ``t``: the same draws, links and
    fading.  The links are those ``config``'s strategy schedules.  Returns
    ``(zf_mean, zf_links, noncoop_mean, noncoop_links)``: the mean
    zero-forcing rate over the links that kept a non-zero rate, the mean
    rate over all non-cooperative links (bits/s/Hz), and the two link
    counts.  Like :func:`run_campaign`, they leave out every trial whose
    zero-forcing channel stayed unusable.  The rate sums are exactly
    rounded, and a mean over no links is 0.
    """
    b, n = config.plan.n_clusters, config.trials
    zf_sums, nc_sums = [], []
    zf_n = nc_n = 0
    for lo in range(0, n, _CHUNK):
        rated = _rate_block(config, _generators(config, lo, min(lo + _CHUNK, n)))
        kept = rated.usable
        zf_sums += rated.zf_sum[kept].tolist()
        zf_n += int((b - rated.zf_dropped)[rated.has_zf & kept].sum())
        nc_sums += rated.nc_sum[kept].ravel().tolist()
        nc_n += int(rated.nc_links[kept].sum())
    return math.fsum(zf_sums) / max(zf_n, 1), zf_n, math.fsum(nc_sums) / max(nc_n, 1), nc_n
