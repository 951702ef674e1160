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
Pass 1 draws the block's rows of stream D (:func:`_drop_rows`), classifies
every user and cluster (:func:`_drop_block`) and picks the links
(:func:`_pick_links`); pass 2 rates the block's links in stacks
(:func:`_rate_block`), and :func:`_run_block` turns the rates into trial
records.  :func:`snapshot_counts` runs pass 1 without the links, and
:func:`link_rate_gap` both passes.  README "Determinism" states the
streams, the windows, the workspace and the caches, with their sizes;
the code must keep:

* Windows.  Trial ``t`` reads only ``[t S, (t + 1) S)`` of each stream of
  width ``S`` (D, F, Z: children 0, 1, 2 of ``SeedSequence(seed)``),
  whatever its strategy, mode or block, and its results sit at index
  ``t`` of ordered arrays, so no block size, thread or process count can
  move an output bit.  Every strategy reads the same windows: ``nocoop``
  and ``coop`` at ``eta = 0`` give the same records, a Mode-0 ``coop``
  trial its ``nocoop`` twin's, and snapshot ``t`` is campaign trial ``t``.
* Stacks.  A stack of channels or link sets is never padded, so each
  matrix sees the arithmetic it would see alone, and an ill-conditioned
  or singular channel takes the drop-worst-link fallback on its own.  The
  Frobenius screen of :func:`_zf_stack` rounds under 1e-8 relative, far
  inside the factor 64 its margin leaves on the squared bound.
* Buffers.  The per-thread workspace (:func:`_scratch`) and the caches
  (:func:`_bucket_table`, :func:`_cell_keys`, :func:`_seeded_state`) may
  change where a result is written, never its arithmetic or order.  What a
  stage hands on (:class:`_Drops`, :class:`_Rated`, the records) is a
  fresh array, and the D rows are held only within their block.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .catalog import PopularityModel
from .clusters import ClusterPlan
from .errors import ConfigurationError, check_cached_groups, check_number
from .rates import RadioParams

__all__ = [
    "SimConfig",
    "SimResult",
    "STRATEGIES",
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
STRATEGIES = ("coop", "nocoop", "tdma")  # the values of SimConfig.strategy
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
_MAX_USERS = np.iinfo(TRIAL_DTYPE["n_coop"]).max  # the records count users in int16


@dataclass(frozen=True)
class SimConfig:
    """Immutable campaign description.

    ``strategy`` is one of :data:`STRATEGIES`; ``eta`` is the cooperative
    band fraction in ``[0, 1]`` (used by ``coop``, checked for every
    strategy).  ``min_pairing_distance_m`` floors every link distance,
    mirroring the near-field truncation of the analytic moments.
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
        if self.strategy not in STRATEGIES:
            raise ConfigurationError(
                "strategy must be one of %s, got %r" % (STRATEGIES, self.strategy)
            )
        side = self.plan.hotspot_side_m
        if not math.isfinite(2.0 * side * side):
            raise ConfigurationError(
                "hotspot_side_m (%r) is too large: a squared link distance overflows" % side
            )
        for name in ("trials", "seed", "eta", "min_pairing_distance_m"):
            check_number(name, getattr(self, name))
        check_cached_groups("users_per_cluster", self.plan.users_per_cluster,
                            self.popularity.group_count)
        if self.plan.n_users > _MAX_USERS:
            raise ConfigurationError(
                "n_clusters x users_per_cluster (%d x %d = %d users) exceeds %d, the most "
                "users a trial record can count"
                % (self.plan.n_clusters, self.plan.users_per_cluster, self.plan.n_users,
                   _MAX_USERS)
            )
        floor = self.min_pairing_distance_m
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


_workspace = threading.local()  # the block stages' working arrays, see :func:`_scratch`
_generators = threading.local()  # each thread's stream generator, see :func:`_stream_rows`


def _scratch(name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
    """This thread's working array ``name`` as ``shape``; its contents are undefined.

    Each name has one grow-only buffer per thread, so a block reuses the
    memory of the blocks before it instead of taking it from the allocator,
    which hands it back between blocks.  A view stays valid until the next
    call with the same name on the same thread, so no array that leaves
    the block's stages (a field of :class:`_Drops` or :class:`_Rated`, a
    record) may live here.
    """
    buffers = _workspace.__dict__
    size = math.prod(shape)
    buf = buffers.get(name)
    if buf is None or buf.size < size or buf.dtype.type is not dtype:
        buf = buffers[name] = np.empty(size, dtype)
    return buf[:size].reshape(shape)


@functools.lru_cache(maxsize=16)
def _corners(n_clusters: int, users_per_cluster: int, cluster_side_m: float) -> np.ndarray:
    """Read-only (M, 2) cell corner of every user of a grid."""
    grid = math.isqrt(n_clusters)
    cell = np.arange(n_clusters)
    origins = np.column_stack((cell % grid, cell // grid)) * cluster_side_m
    corner = np.repeat(origins, users_per_cluster, axis=0)
    corner.flags.writeable = False
    return corner


@functools.lru_cache(maxsize=8)
def _cell_keys(n: int, n_clusters: int, users_per_cluster: int, groups: int) -> np.ndarray:
    """Read-only (n, M) offset ``(t B + c) G`` of user ``j`` of cluster ``c`` of trial ``t``.

    Plus the user's requested group, it is the user's (trial, cluster,
    group) cell of a block's flat (n, B, G) request counts.
    """
    cells = np.arange(n * n_clusters).repeat(users_per_cluster) * groups
    cells.flags.writeable = False
    return cells.reshape(n, n_clusters * users_per_cluster)


class _Drops(NamedTuple):
    """Stages 1 and 2 of a block of ``T`` trials (``M`` users, ``B`` x ``K`` grid)."""

    request_of: np.ndarray  # (T, M) requested group, 0-based, see :func:`_categorical`
    counts: np.ndarray  # (T, B, K) requests per cluster and cached group
    hit: np.ndarray  # (T, K) cached groups requested in every cluster
    roles: np.ndarray  # (T, M) int8 role codes
    choices: np.ndarray  # (T, 1 + 2B) scheduling uniforms, see :func:`_pick_links`


# The campaign's three streams, each a ``PCG64`` seeded from this child of
# ``SeedSequence(seed)``, and the workspace name of a block's rows of it.
_DROPS, _FADING, _CHANNEL = 0, 1, 2
_STREAM_ROWS = ("draws", "fading", "channel")


def _seeded(seed: int, stream: int) -> np.random.Generator:
    """A generator of campaign stream ``stream`` of ``seed``, before its first draw."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(stream,))))


@functools.lru_cache(maxsize=64)
def _seeded_state(seed: int, stream: int) -> dict:
    """The ``PCG64`` state of :func:`_seeded`, shared by every thread and never changed.

    The most recent (seed, stream) pairs are kept: the strategies of one
    seed, and every block after a campaign's first, reuse them.
    """
    return _seeded(seed, stream).bit_generator.state


def _stream_rows(seed: int, stream: int, lo: int, hi: int, width: int) -> np.ndarray:
    """Rows ``lo .. hi - 1`` of a campaign stream, ``width`` uniforms each, in scratch.

    Row ``t`` is trial ``t``'s window ``[t * width, (t + 1) * width)`` of the
    stream's doubles, so a block's rows are those of its trials drawn alone.
    The thread's generator takes the stream's seeded state and advances it.
    """
    generator = getattr(_generators, "generator", None)
    if generator is None:
        generator = _generators.generator = _seeded(seed, stream)
    bits = generator.bit_generator
    bits.state = _seeded_state(seed, stream)
    bits.advance(lo * width)  # ``random`` takes one 64-bit output per double
    return generator.random(out=_scratch(_STREAM_ROWS[stream], (hi - lo, width)))


def _drop_rows(config: SimConfig, lo: int, hi: int) -> np.ndarray:
    """The rows of stream D of trials ``lo .. hi - 1``, in scratch (:func:`_drop_block`)."""
    plan = config.plan
    return _stream_rows(config.seed, _DROPS, lo, hi, 3 * plan.n_users + 1 + 2 * plan.n_clusters)


@functools.lru_cache(maxsize=16)
def _bucket_table(cdf: bytes) -> np.ndarray:
    """Read-only table of :func:`_categorical` for the float64 cdf of these bytes.

    Its dtype, that of the looked-up groups, is the smallest signed type
    that holds ``-G``: every group index and the mark -1.
    """
    edges = np.frombuffer(cdf)[:-1]
    below = np.searchsorted(edges, np.arange(_BUCKETS + 1) / _BUCKETS, side="right")
    table = np.where(below[1:] == below[:-1], below[:-1], -1)
    table = table.astype(np.min_scalar_type(-(edges.size + 1)))
    table.flags.writeable = False
    return table


def _categorical(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``min(searchsorted(cdf, u, side="right"), len(cdf) - 1)`` by table lookup.

    That is the count of the edges ``cdf[:-1]`` at most ``u``.  A key in
    bucket ``j <= u * _BUCKETS < j + 1`` counts the edges at most
    ``j / _BUCKETS``, unless an edge lies inside the bucket; the table marks
    those buckets -1, and only their keys are searched.  The result is a
    fresh array of the table's small dtype (:func:`_bucket_table`).
    """
    keys = _scratch("bucket", u.shape, np.intp)
    np.multiply(u, _BUCKETS, out=keys, casting="unsafe")  # truncated, as ``astype``
    out = np.take(_bucket_table(cdf.tobytes()), keys)
    redo = np.flatnonzero(np.less(out, 0, out=_scratch("searched", u.shape, np.bool_)))
    out.flat[redo] = np.searchsorted(cdf[:-1], u.flat[redo], side="right")
    return out


def _drop_block(config: SimConfig, draws: np.ndarray) -> _Drops:
    """Stage 2 of a block from its rows ``draws`` of stream D (stage 1, :func:`_drop_rows`).

    Each row holds a trial's ``M x 2`` unit-cell position uniforms, which
    are scaled only at link ends (:func:`_block_ends`), ``M`` request
    uniforms and ``1 + 2B`` scheduling uniforms.  One :func:`_categorical`
    lookup and one ``bincount`` over (trial, cluster, group) classify every
    trial at once; each user's role is read at the same cell.
    """
    plan, popularity = config.plan, config.popularity
    b, k, m = plan.n_clusters, plan.users_per_cluster, plan.n_users
    n, k0 = len(draws), popularity.group_count
    request_of = _categorical(np.cumsum(popularity.group_probs), draws[:, 2 * m : 3 * m])
    cell = _scratch("cell", (n, m), np.intp)
    np.add(_cell_keys(n, b, k, k0), request_of, out=cell)
    counts = np.bincount(cell.ravel(), minlength=n * b * k0).reshape(n, b, k0)[:, :, :k]
    hit = counts.min(axis=1) > 0
    role = _scratch("role", (n, b, k0), np.int8)  # of each (trial, cluster, group) cell
    role[:, :, k:] = ROLE_CELLULAR
    role[:, :, :k] = np.where(hit, np.int8(ROLE_COOP), np.int8(ROLE_NONCOOP))[:, None]
    # a copy: the draws are the thread's scratch, which the next block overwrites
    return _Drops(request_of, counts, hit, np.take(role, cell), draws[:, 3 * m :].copy())


def _role_counts(roles: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per trial, the users of each role code of ``roles`` (T, M), in code order.

    They are summed in int16, the records' type, which holds every user count.
    """
    coop = (roles == ROLE_COOP).sum(axis=1, dtype=np.int16)
    cellular = (roles == ROLE_CELLULAR).sum(axis=1, dtype=np.int16)
    return coop, roles.shape[1] - coop - cellular, cellular


def _nth_true(mask: np.ndarray, counts: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Flat position in ``mask`` of the ``n[i]``-th (0-based) True of its ``i``-th non-empty row.

    Rows run along the last axis.  Non-empty row ``i`` holds ``counts[i]``
    Trues and ``n[i] < counts[i]``; a row of no True takes no rank, so it
    may stay in ``mask``.  The position modulo the row length is the column.
    """
    first = np.cumsum(counts) - counts  # rank of each row's first True
    return np.flatnonzero(mask)[first + n]


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
    the same count.  The links of every trial are picked together, by flat
    position in the block's (T, B, K) masks, with :func:`_nth_true`.  A
    user never serves itself: the receivers of group ``g`` are its
    requesters other than user ``g``, and a Mode-1 trial in which no hit
    group has a receiver in every cluster forms no cooperative set.
    """
    n, b, k = counts.shape
    per_cluster = request_of.reshape(n, b, k)
    users = np.arange(k, dtype=request_of.dtype)
    own = per_cluster == users  # user j requests the group it caches
    roles = roles.reshape(n, b, k)
    if restrict.all():
        pool = roles == ROLE_NONCOOP
    elif restrict.any():
        pool = np.where(restrict[:, None, None], roles == ROLE_NONCOOP, roles != ROLE_CELLULAR)
    else:
        pool = roles != ROLE_CELLULAR
    pool &= ~own
    # numpy's ``sum`` reduces a short last axis slowly; ``einsum`` counts in C
    sizes = np.einsum("tcj->tc", pool, dtype=np.intp, casting="unsafe")
    active = sizes > 0
    sizes = sizes[active]
    at = _nth_true(pool, sizes, _below(choices[:, 1 + b :][active], sizes))  # flat (t, c, j)
    at_cluster, nc_rx = np.divmod(at, k)
    nc_trial, nc_cluster = np.divmod(at_cluster, b)
    nc_tx = np.take(request_of, at)

    rows = np.flatnonzero(restrict)
    if not rows.size:
        empty = np.empty((0, b), dtype=np.intp)
        return _Links(rows, empty[:, 0], empty, nc_trial, nc_cluster, nc_tx, nc_rx)
    # (rows, k) groups a set can send: a requester other than user g in every cluster
    valid = (counts > own)[rows].all(axis=1)
    n_valid = np.einsum("rk->r", valid, dtype=np.intp, casting="unsafe")
    sets = np.flatnonzero(n_valid)
    coop = rows[sets]
    group = _nth_true(valid, n_valid[sets], _below(choices[coop, 0], n_valid[sets])) % k
    bounds = counts[coop, :, group] - own[coop, :, group]  # each cluster's receivers
    g = group[:, None, None]
    eligible = ((per_cluster[coop] == g) & (users != g)).reshape(-1, k)
    picks = _below(choices[coop, 1 : 1 + b], bounds)
    coop_rx = (_nth_true(eligible, bounds.ravel(), picks.ravel()) % k).reshape(-1, b)
    return _Links(coop, group, coop_rx, nc_trial, nc_cluster, nc_tx, nc_rx)


# A link set is rated from its ends, ``ends[..., l, :, :]`` holding the
# transmitter and receiver positions of link ``l``, and from its fading: a
# zero-forcing channel from two standard normal (n, n) matrices, the real
# part first; a non-cooperative set from one (n, n) matrix of Exp(1) fading
# powers, which is the law of ``|h|^2`` for ``h ~ CN(0, 1)``.  The kernels
# below take stacks of them, (T, n, 2, 2), (T, 2, n, n) and (T, n, n).


def _path_gains(ends: np.ndarray, radio: RadioParams, min_distance_m: float) -> np.ndarray:
    """Gains ``g[..., i, j]`` from transmitter ``j`` to receiver ``i``, in scratch.

    Every distance, ``sqrt(dx * dx + dy * dy)``, is floored at ``min_distance_m``.
    """
    x, y = ends[..., 0], ends[..., 1]  # (..., n, 2): transmitter, then receiver
    shape = x.shape[:-2] + (x.shape[-2],) * 2
    d = np.subtract(x[..., :, None, 1], x[..., None, :, 0], out=_scratch("distance", shape))
    dy = np.subtract(y[..., :, None, 1], y[..., None, :, 0], out=_scratch("square", shape))
    np.square(d, out=d)
    d += np.square(dy, out=dy)
    np.maximum(np.sqrt(d, out=d), min_distance_m, out=d)
    d **= -radio.alpha  # RadioParams.path_gain in place: its power, then its product
    d *= radio.intercept_linear
    return d


def _zf_channel(ends, normals, radio: RadioParams, min_distance_m: float) -> np.ndarray:
    """Composite channels ``sqrt(gain / 2) * (x + i y)`` of a stack, in scratch.

    The gains are halved and rooted in place, and ``g * x`` and ``g * y``
    go straight into the real and imaginary parts of one complex stack:
    the floats of the complex product, whose cross terms multiply zeros.
    """
    g = _path_gains(ends, radio, min_distance_m)
    np.sqrt(np.divide(g, 2.0, out=g), out=g)
    h = _scratch("zf_channel", g.shape, np.complex128)
    np.multiply(g, normals[:, 0], out=h.real)
    np.multiply(g, normals[:, 1], out=h.imag)
    return h


def _col_norm2(inv: np.ndarray) -> np.ndarray:
    """Squared column norms ``sum_i |inv[..., i, j]|^2``; the moduli go to scratch."""
    power = np.abs(inv, out=_scratch("inverse_power", inv.shape))
    return np.square(power, out=power).sum(axis=-2)


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
    on the squared bound.  The others take :func:`_drop_worst_links` and
    its exact condition number one at a time.  When the stack's inversion
    fails on a singular matrix, the stack is inverted one matrix at a time
    (the same bits), and only the matrices that fail skip the screen.
    """
    rates = np.zeros(h.shape[:2])
    usable = np.ones(h.shape[0], dtype=bool)
    try:
        inv = np.linalg.inv(h)
    except np.linalg.LinAlgError:
        inv = np.full_like(h, np.nan)  # a NaN norm fails the screen
        for t, channel in enumerate(h):
            try:
                inv[t] = np.linalg.inv(channel)
            except np.linalg.LinAlgError:
                pass
    col_norm2 = _col_norm2(inv)
    parts = h.view(np.float64)  # (T, n, 2n): real, imaginary, real, ...
    frob2 = np.einsum("tij,tij->t", parts, parts)
    fast = frob2 * col_norm2.sum(axis=1) <= (_COND_LIMIT / 8) ** 2
    if fast.all():
        return _zf_link_rates(col_norm2, p_w, noise_w), usable
    rates[fast] = _zf_link_rates(col_norm2[fast], p_w, noise_w)
    for t in np.flatnonzero(~fast):
        kept = _drop_worst_links(h[t], p_w, noise_w)
        if kept is None:
            usable[t] = False
        else:
            rates[t] = kept
    return rates, usable


def _sinr_rates(ends, fading_power, radio: RadioParams, min_distance_m: float) -> np.ndarray:
    """Treated-as-noise spectral efficiencies of a stack of link sets, (T, n).

    ``fading_power`` is the (T, n, n) stack of Exp(1) powers ``|h|^2``.
    """
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


def _block_ends(config: SimConfig, draws: np.ndarray, trial: np.ndarray, tx, rx) -> np.ndarray:
    """Ends ``(..., n, 2, 2)`` of the links ``tx -> rx`` of ``trial``.

    ``draws`` are the block's rows of stream D (:func:`_drop_rows`).  Each
    end's unit-cell uniforms ``u`` and its cell corner are taken by flat
    position, and ``u`` is scaled to the position ``u * d + corner``, for
    cells of side ``d``.
    """
    plan = config.plan
    d = plan.cluster_side_m
    at = np.stack((tx, rx), axis=-1)[..., None] * 2 + np.arange(2)  # flat (user, coordinate)
    corner = np.take(_corners(plan.n_clusters, plan.users_per_cluster, d), at)
    at += trial[..., None, None] * draws.shape[1]  # flat (trial, user, coordinate)
    ends = np.take(draws, at)
    ends *= d
    ends += corner
    return ends


def _exponentials(uniforms: np.ndarray) -> np.ndarray:
    """Exp(1) variates ``-log1p(-u)`` in place of uniforms ``u`` in ``[0, 1)``."""
    np.log1p(np.negative(uniforms, out=uniforms), out=uniforms)
    return np.negative(uniforms, out=uniforms)


def _box_muller(uniforms: np.ndarray) -> np.ndarray:
    """Standard normals ``x = r cos(a)``, ``y = r sin(a)`` in place of (T, 2, n, n) uniforms.

    ``[:, 0]`` holds ``u`` and becomes ``x``, ``[:, 1]`` holds ``v`` and
    becomes ``y``, with ``r = sqrt(2 E)``, ``E = -log1p(-u)`` ~ Exp(1), and
    ``a = 2 pi v``.
    """
    radius, angle = uniforms[:, 0], uniforms[:, 1]
    np.multiply(angle, 2.0 * math.pi, out=angle)
    np.sqrt(np.multiply(_exponentials(radius), 2.0, out=radius), out=radius)
    cos = np.cos(angle, out=_scratch("cosine", angle.shape))
    np.sin(angle, out=angle)
    angle *= radius
    radius *= cos
    return uniforms


def _set_powers(fading: np.ndarray, trial: np.ndarray, cluster: np.ndarray) -> np.ndarray:
    """The (S, n, n) fading powers of S link sets of n links each, in scratch.

    ``fading`` holds a block's (T, B, B) uniforms of stream F; set ``s``
    belongs to trial ``trial[s]``, and its link ``i`` runs in cluster
    ``cluster[s, i]``, in cluster order.  Entry ``[s, i, j]``, the power
    from link ``j``'s transmitter to link ``i``'s receiver, is the Exp(1)
    power (:func:`_exponentials`) of ``fading[trial[s], cluster[s, i],
    cluster[s, j]]``.
    A set of all ``B`` clusters takes its trial's whole row.  ``take``
    writes straight into scratch; every index is in range, so ``"clip"``
    never clips, and ``mode="raise"`` would buffer ``out``.
    """
    (count, n), b = cluster.shape, fading.shape[1]
    power = _scratch("gather", (count, n, n))
    if n == b:
        np.take(fading, trial, axis=0, out=power, mode="clip")
    else:
        row = (trial[:, None] * b + cluster) * b  # flat offset of each receiver's row
        at = _scratch("gather_index", power.shape, np.intp)
        np.take(fading, np.add(row[:, :, None], cluster[:, None, :], out=at), out=power, mode="clip")
    return _exponentials(power)


class _Rated(NamedTuple):
    """Stages 1-3 and pass 2 of a block of ``T`` trials, ``S`` link sets each.

    ``S`` is 4 for ``tdma`` (the colour slots) and 1 otherwise.  A trial
    without a cooperative set, or whose channel stayed unusable, has a
    zero-forcing rate sum of 0; an unusable channel counts all its links as
    dropped.
    """

    drops: _Drops
    mode: np.ndarray  # (T,) Mode 1: some cached group is requested in every cluster
    split: np.ndarray  # (T,) cooperation in Mode 1: the band is split
    has_zf: np.ndarray  # (T,) a cooperative set was scheduled
    zf_sum: np.ndarray  # (T,) zero-forcing rate sum
    zf_dropped: np.ndarray  # (T,) zero-forcing links of rate 0
    usable: np.ndarray  # (T,) False when the channel stayed unusable
    nc_sum: np.ndarray  # (T, S) non-cooperative rate sum of each set
    nc_links: np.ndarray  # (T, S) links of each set


def _rate_block(config: SimConfig, lo: int, hi: int) -> _Rated:
    """Draw, schedule and rate trials ``lo .. hi - 1``.

    Pass 1 runs stages 1-3 (:func:`_drop_block`, :func:`_pick_links`).
    Pass 2 stacks the link sets of equal size, so each matrix sees the
    arithmetic it would see alone.  Each stack takes its fading from the
    block's rows of a stream, one ``random`` call each: the cooperating
    trials' rows of stream Z, ``2B^2`` uniforms turned into the channel's
    normals by :func:`_box_muller`, drawn only when some trial cooperates;
    each non-cooperative set's, or tdma colour slot's, Exp(1) powers
    gathered from its trial's row of stream F, at the set's (receiver,
    transmitter) clusters, drawn only when the block has such a link.  A
    set's links are read in the order :func:`_pick_links` returns them
    (only tdma sorts them into its colour slots); when the non-empty sets
    all have one size, the links are their rows, with no gather.
    """
    plan, radio = config.plan, config.radio
    b, k = plan.n_clusters, plan.users_per_cluster
    n = hi - lo
    draws = _drop_rows(config, lo, hi)  # held to the end: the link ends read them
    drops = _drop_block(config, draws)
    mode = drops.hit.any(axis=1)
    split = mode & (config.strategy == "coop" and config.eta > 0.0)
    links = _pick_links(drops.request_of, drops.counts, drops.roles, split, drops.choices)

    floor, cells = config.min_pairing_distance_m, np.arange(b) * k
    has_zf = np.zeros(n, dtype=bool)
    has_zf[links.coop] = True
    zf_sum = np.zeros(n)
    zf_dropped = np.zeros(n, dtype=np.int64)
    usable = np.ones(n, dtype=bool)
    if links.coop.size:
        normals = _stream_rows(config.seed, _CHANNEL, lo, hi, 2 * b * b).reshape(n, 2, b, b)
        if links.coop.size < n:  # the cooperating trials' rows; "clip" never clips
            out = _scratch("normals", (links.coop.size, 2, b, b))
            normals = np.take(normals, links.coop, axis=0, out=out, mode="clip")
        ends = _block_ends(
            config, draws, links.coop[:, None], cells + links.group[:, None], cells + links.coop_rx
        )
        h = _zf_channel(ends, _box_muller(normals), radio, floor)
        rates, ok = _zf_stack(h, radio.tx_power_w, radio.noise_w)
        usable[links.coop] = ok
        zf_sum[links.coop] = rates.sum(axis=1)
        zf_dropped[links.coop] = np.count_nonzero(rates == 0.0, axis=1)

    cluster, tx, rx = links.nc_cluster, links.nc_tx, links.nc_rx  # trial, then cluster order
    if config.strategy == "tdma":
        n_slots, grid = 4, math.isqrt(b)
        row, col = np.divmod(cluster, grid)
        slot = links.nc_trial * 4 + 2 * (row % 2) + col % 2
        order = np.argsort(slot, kind="stable")  # each slot's links together, in cluster order
        cluster, tx, rx = cluster[order], tx[order], rx[order]
    else:
        n_slots, slot = 1, links.nc_trial
    tx, rx = cluster * k + tx, cluster * k + rx  # among the trial's users
    set_size = np.bincount(slot, minlength=n * n_slots)
    nc_sum = np.zeros(n * n_slots)
    sizes = np.flatnonzero(np.bincount(set_size)[1:]) + 1  # the distinct sizes of the sets
    if sizes.size:
        fading = _stream_rows(config.seed, _FADING, lo, hi, b * b).reshape(n, b, b)
    if sizes.size > 1:
        first_link = np.cumsum(set_size) - set_size
    for size in sizes.tolist():
        sets = np.flatnonzero(set_size == size)
        if sizes.size == 1:  # the sets' links lie end to end, one set a row
            set_cluster, set_tx, set_rx = (a.reshape(-1, size) for a in (cluster, tx, rx))
        else:
            idx = first_link[sets, None] + np.arange(size)
            set_cluster, set_tx, set_rx = cluster[idx], tx[idx], rx[idx]
        trial = sets // n_slots
        ends = _block_ends(config, draws, trial[:, None], set_tx, set_rx)
        power = _set_powers(fading, trial, set_cluster)
        nc_sum[sets] = _sinr_rates(ends, power, radio, floor).sum(axis=1)
    return _Rated(
        drops, mode, split, has_zf, zf_sum, zf_dropped, usable,
        nc_sum.reshape(n, n_slots), set_size.reshape(n, n_slots),
    )


def _run_block(config: SimConfig, start: int, out: np.ndarray) -> None:
    """Fill the records of trials ``start .. start + len(out) - 1``.

    The rate sums are combined in the order of a single trial.
    """
    rated = _rate_block(config, start, start + len(out))
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
    out["mode"] = rated.mode
    out["n_coop"], out["n_noncoop"], out["n_cellular"] = _role_counts(rated.drops.roles)
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
        Its means and interval are plain float64 reductions of the kept
        records, one ``add.reduce`` per field: the same sums, divisions and
        square root as numpy's ``mean`` and ``std(ddof=1)``, so the same bits.
    """
    check_number("n_jobs", n_jobs)
    trials = config.trials
    if n_jobs == 1:
        records = _run_range((config, 0, trials))
    else:
        records = np.empty(trials, dtype=TRIAL_DTYPE)
        bounds = np.linspace(0, trials, num=min(n_jobs * 4, trials) + 1, dtype=int)
        jobs = [(config, int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
        workers = min(n_jobs, len(jobs), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for (_, lo, hi), chunk in zip(jobs, pool.map(_run_range, jobs)):
                records[lo:hi] = chunk

    valid = records["discarded"] == 0
    n_valid = int(np.count_nonzero(valid))
    kept = records if n_valid == trials else records[valid]
    b = config.plan.n_clusters
    # One ``add.reduce`` per field, the sum inside numpy's ``mean``, which
    # also takes the integer fields' sums in float64 (exact, far below 2**53).
    total = {
        name: np.add.reduce(kept[name], dtype=np.float64)
        for name in ("n_coop", "n_noncoop", "n_cellular", "mode", "degenerate",
                     "dropped_links", "silent_clusters")
    }
    mean_coop, mean_noncoop, mean_cell, mode1 = (
        float(total[name] / n_valid) if n_valid else math.nan
        for name in ("n_coop", "n_noncoop", "n_cellular", "mode")
    )
    mean = coop_band_mean = math.nan
    ci95 = 0.0
    if n_valid:
        # Throughputs and their coop-band parts are averaged at the scale
        # 2**-e, e the binary exponent of the largest throughput: exact, and
        # a sum near the top of the float range cannot overflow.
        e = int(np.frexp(np.maximum.reduce(np.abs(kept["throughput"])))[1])
        thr = np.ldexp(kept["throughput"], -e)
        thr_mean = np.add.reduce(thr) / n_valid
        mean = float(np.ldexp(thr_mean, e))
        coop_band = np.add.reduce(np.ldexp(kept["coop_band"], -e)) / n_valid
        coop_band_mean = float(np.ldexp(coop_band, e))
        if n_valid > 1:  # ``std(ddof=1)``: the squared deviations from that mean
            dev = np.subtract(thr, thr_mean, out=thr)
            std = np.sqrt(np.add.reduce(np.multiply(dev, dev, out=dev)) / (n_valid - 1))
            ci95 = float(np.ldexp(1.96 * std / math.sqrt(n_valid), e))
    noncoop_band_mean = mean - coop_band_mean

    return SimResult(
        strategy=config.strategy,
        throughput_mean=mean,
        throughput_ci95=ci95,
        user_throughput_coop=(coop_band_mean / mean_coop) if mean_coop else 0.0,
        user_throughput_noncoop=(noncoop_band_mean / mean_noncoop) if mean_noncoop else 0.0,
        mode1_frequency=mode1,
        mean_counts=(mean_coop, mean_noncoop, mean_cell),
        n_trials=n_valid,
        discarded_trials=trials - n_valid,
        degenerate_mode1_trials=int(total["degenerate"]),
        dropped_link_fraction=float(total["dropped_links"]) / max(1, n_valid * b),
        silent_cluster_fraction=float(total["silent_clusters"]) / max(1, n_valid * b),
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
        drops = _drop_block(config, _drop_rows(config, lo, hi))
        modes[lo:hi] = drops.hit.any(axis=1)
        coops[lo:hi] = _role_counts(drops.roles)[ROLE_COOP]
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
        rated = _rate_block(config, lo, min(lo + _CHUNK, n))
        kept = rated.usable
        zf_sums += rated.zf_sum[kept].tolist()
        zf_n += int((b - rated.zf_dropped)[rated.has_zf & kept].sum())
        nc_sums += rated.nc_sum[kept].ravel().tolist()
        nc_n += int(rated.nc_links[kept].sum())
    return math.fsum(zf_sums) / max(zf_n, 1), zf_n, math.fsum(nc_sums) / max(nc_n, 1), nc_n
