"""Independent reference computations for the test suite.

Everything here deliberately avoids the library's own evaluation paths:
expectations are enumerated over raw outcome spaces in exact rational
arithmetic, optimizers are brute-force grids, and geometric quantities are
estimated by sampling endpoint coordinates directly.  Agreement between a
library value and its oracle therefore checks the mathematics, not the code
against itself.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_right
from fractions import Fraction
from itertools import product

import numpy as np
from scipy.integrate import quad

from coopd2d.catalog import PopularityModel
from coopd2d.geometry import interference_pdf, signal_pdf

_BLOCK = 2_000_000  # sampling block size; bounds peak memory


def make_synthetic_model(probs, cache_size: int = 1) -> PopularityModel:
    """Wrap an explicit group-probability vector in a :class:`PopularityModel`."""
    probs = np.asarray(probs, dtype=float)
    return PopularityModel(
        n_files=probs.size * cache_size,
        cache_size=cache_size,
        beta=0.0,
        group_count=probs.size,
        group_probs=probs,
    )


def zipf_group_probs(n_files: int, cache_size: int, beta: float) -> np.ndarray:
    """Group probabilities by exact rational accumulation of the float weights."""
    weights = [Fraction(i ** -float(beta)) for i in range(1, n_files + 1)]
    total = sum(weights, Fraction(0))
    groups = n_files // cache_size
    return np.array(
        [
            float(sum(weights[g * cache_size : (g + 1) * cache_size], Fraction(0)) / total)
            for g in range(groups)
        ]
    )


def brute_force_coop_mean(model: PopularityModel, users_per_cluster: int, n_clusters: int) -> float:
    """Expected cooperative-user count by enumerating every raw request outcome.

    Every user's request is a group index; the outcome space is
    ``group_count ** (K * B)``.  Probabilities are exact rationals of the
    stored float group probabilities, so the final float is the correctly
    rounded exact expectation and can be compared bit-for-bit against any
    other exact evaluation route.
    """
    k0 = model.group_count
    k, b = users_per_cluster, n_clusters
    p = [Fraction(float(x)) for x in model.group_probs]
    total = Fraction(0)
    for outcome in product(range(k0), repeat=k * b):
        prob = Fraction(1)
        for g in outcome:
            prob *= p[g]
        coop = 0
        for g in range(k):  # cached groups only
            counts = [0] * b
            for user, req in enumerate(outcome):
                if req == g:
                    counts[user // k] += 1
            if all(counts):
                coop += sum(counts)
        total += prob * coop
    return float(total)


def closed_form_coop_mean(model: PopularityModel, k: int, b: int) -> float:
    """Linearity identity ``K B sum_g P_g hit_g^(B-1)`` with ``hit_g = 1-(1-P_g)^K``.

    A user is cooperative iff its request's group is hit by the other
    ``B - 1`` clusters as well, which happens with probability
    ``hit_g^(B-1)``; summing over users and requested cached groups gives the
    exact mean without any enumeration.
    """
    p = np.asarray(model.group_probs[:k], dtype=float)
    ph = 1.0 - (1.0 - p) ** k
    return float(k * b * np.sum(p * ph ** (b - 1)))


def exact_coop_probability(model: PopularityModel, k: int, b: int) -> float:
    """Probability that some cached group is requested in every cluster, exactly.

    A cluster's ``K`` requests are one multinomial draw, so its hits of
    different groups are dependent; the clusters are independent.  For a set
    ``S`` of cached groups, inclusion-exclusion over the missed groups
    ``T`` gives ``P(S) = P(a cluster requests all of S) = sum_{T subset of
    S} (-1)^|T| (1 - p_T)^K``, and over ``S``, ``P_coop = sum_{S != {}}
    (-1)^(|S|+1) P(S)^B``.  The inner sums of all ``S`` come from one subset-sum
    transform.  The float group probabilities share a power-of-two
    denominator, so every term is an exact integer over it.
    """
    probs = [Fraction(float(x)) for x in model.group_probs[:k]]
    den = max(p.denominator for p in probs)
    num = [int(p * den) for p in probs]
    missed = [0] * (1 << k)  # den * p_T of every set T of cached groups
    for mask in range(1, 1 << k):
        low = mask & -mask
        missed[mask] = missed[mask ^ low] + num[low.bit_length() - 1]
    all_hit = [(-1) ** mask.bit_count() * (den - m) ** k for mask, m in enumerate(missed)]
    for i in range(k):
        for mask in range(1 << k):
            if mask >> i & 1:
                all_hit[mask] += all_hit[mask ^ 1 << i]
    total = sum((-1) ** (s.bit_count() + 1) * all_hit[s] ** b for s in range(1, 1 << k))
    return float(Fraction(total, den ** (k * b)))


def dense_grid_search_eta(
    pc: float,
    rc: float,
    rn: float,
    bandwidth_hz: float,
    n_clusters: int,
    nc_bar: float,
    nn_bar: float,
    mu: float,
    n_points: int = 100_001,
) -> float:
    """Dense-grid maximizer of the bandwidth-split program.

    Evaluates every point of ``np.linspace(0, 1, n_points)``: the bit-exact
    reference for :func:`coopd2d.experiments.grid_search_eta`, which
    evaluates only a few of them.  Ties resolve toward the largest feasible
    ``eta``.  Returns ``nan`` when no grid point is feasible.
    """
    eta = np.linspace(0.0, 1.0, n_points)
    wb = bandwidth_hz * n_clusters
    ok = np.ones(n_points, dtype=bool)
    if mu > 0 and nc_bar > 0:
        ok &= wb * eta * rc >= mu * nc_bar
    if mu > 0 and nn_bar > 0:
        ok &= wb * (1.0 - eta) * rn >= mu * nn_bar
    if not ok.any():
        return math.nan
    objective = wb * (pc * eta * rc + (1.0 - pc * eta) * rn)
    objective = np.where(ok, objective, -np.inf)
    # argmax of the reversed array prefers the largest eta among exact ties
    return float(eta[n_points - 1 - int(np.argmax(objective[::-1]))])


def sample_distances(rng: np.random.Generator, n: int, adjacent: bool = False) -> np.ndarray:
    """Distances between uniform points of the unit square and itself or its
    edge-adjacent neighbor (``[1, 2] x [0, 1]``)."""
    out = np.empty(n)
    done = 0
    while done < n:
        c = min(_BLOCK, n - done)
        rx = rng.random((c, 2))
        tx = rng.random((c, 2))
        if adjacent:
            tx[:, 0] += 1.0
        out[done : done + c] = np.hypot(tx[:, 0] - rx[:, 0], tx[:, 1] - rx[:, 1])
        done += c
    return out


def histogram_sup_norm(pdf, samples: np.ndarray, upper: float, n_bins: int) -> float:
    """Sup-norm between a histogram density and the bin-averaged pdf.

    Averaging the pdf over each bin (by quadrature) removes the discretization
    bias, so the returned deviation is purely sampling noise.
    """
    edges = np.linspace(0.0, upper, n_bins + 1)
    hist, _ = np.histogram(samples, bins=edges, density=True)
    ref = np.array(
        [quad(pdf, lo, hi, limit=100)[0] for lo, hi in zip(edges[:-1], edges[1:])]
    ) / np.diff(edges)
    return float(np.abs(hist - ref).max())


def empirical_truncated_moment(
    rng: np.random.Generator, n: int, alpha: float, r_min: float, adjacent: bool = False
) -> tuple[float, float]:
    """Mean and standard error of ``r**-alpha * 1{r >= r_min}`` over pair draws."""
    assert alpha > 0.0
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < n:
        c = min(_BLOCK, n - done)
        r = sample_distances(rng, c, adjacent=adjacent)
        v = np.where(r >= r_min, r, np.inf) ** -alpha  # excluded pairs give 0
        total += float(v.sum())
        total_sq += float((v * v).sum())
        done += c
    mean = total / n
    var = max(total_sq / n - mean * mean, 0.0)
    return mean, math.sqrt(var / n)


def near_field_moment(alpha: float, r_min: float, adjacent: bool = False) -> float:
    """``E[r^-alpha 1{r >= r_min}]`` for ``0 < r_min < 1``, split at ``r = 1``.

    Below one cell side the densities are polynomials, ``2 pi r - 8 r^2 + 2 r^3``
    (same cell) and ``2 r^2 - r^3`` (edge-adjacent), so ``[r_min, 1)`` is a sum
    of power integrals; ``[1, upper]`` does not depend on ``r_min`` and is an
    ordinary ``quad`` of the package's density, the one library path used here
    (the densities are checked against sampled histograms).  Sampling cannot
    resolve these floors: the variance ``E[r^-2 alpha]`` blows up as
    ``r_min -> 0``.
    """
    assert 0.0 < r_min < 1.0
    if adjacent:
        terms = ((2.0, 2.0), (-1.0, 3.0))
    else:
        terms = ((2.0 * math.pi, 1.0), (-8.0, 2.0), (2.0, 3.0))
    near = 0.0
    for c, p in terms:
        k = p + 1.0 - alpha  # int_{r_min}^1 r^(k-1) dr
        near += c * (-math.log(r_min) if k == 0.0 else (1.0 - r_min ** k) / k)
    return near + _far_field_moment(alpha, adjacent)


@functools.lru_cache(maxsize=None)
def _far_field_moment(alpha: float, adjacent: bool) -> float:
    pdf, upper, breaks = (
        (interference_pdf, math.sqrt(5.0), [math.sqrt(2.0), 2.0])
        if adjacent else (signal_pdf, math.sqrt(2.0), None)
    )
    value, _ = quad(lambda r: r ** -alpha * pdf(r), 1.0, upper, points=breaks,
                    epsabs=0.0, epsrel=1e-13, limit=200)
    return value


def mean_sir_rate(rng: np.random.Generator, n: int, alpha: float, r_min: float) -> float:
    """Average ``log2(1 + SIR)`` under the marginal-distance interference model.

    One in-cell signal distance against the sum of 8 independent
    adjacent-cell interferer distances, every distance floored at ``r_min``
    (cluster-side units), no fading, no noise.  This keeps every modeling
    assumption of the closed-form non-cooperative rate except the final
    ``log2(1 + E[.])`` substitution, so the gap it measures is the Jensen
    gap of that substitution alone.
    """
    rs = np.maximum(sample_distances(rng, n), r_min)
    interference = np.zeros(n)
    for _ in range(8):
        ri = np.maximum(sample_distances(rng, n, adjacent=True), r_min)
        interference += ri ** -alpha
    return float(np.mean(np.log2(1.0 + rs ** -alpha / interference)))


def mean_aggregate_snr_rate(
    rng: np.random.Generator,
    n: int,
    alpha: float,
    r_min: float,
    tx_power_w: float,
    intercept_linear: float,
    noise_w: float,
    n_clusters: int,
    cluster_side_m: float,
) -> float:
    """Average ``log2(1 + SNR)`` of the aggregate 9-cell received-power model.

    One in-cell plus 8 adjacent-cell distances (floored, cluster-side units),
    each weighted by a unit-mean exponential fading power, summed into the
    received power of one stream under the equal per-stream power split.
    As with :func:`mean_sir_rate`, only the log-expectation substitution of
    the closed form is removed.
    """
    aggregate = np.zeros(n)
    for j in range(9):
        r = np.maximum(sample_distances(rng, n, adjacent=j > 0), r_min)
        gain = intercept_linear * (cluster_side_m * r) ** -alpha
        aggregate += gain * rng.exponential(size=n)
    snr = tx_power_w * aggregate / (n_clusters * noise_w)
    return float(np.mean(np.log2(1.0 + snr)))


def stream_window(seed: int, stream: int, t: int, width: int) -> np.ndarray:
    """Trial ``t``'s ``width`` uniforms of campaign stream ``stream``.

    The stream is a fresh ``PCG64`` seeded from child ``stream`` of
    ``SeedSequence(seed)`` (0: the drop, 1: the fading powers, 2: the
    zero-forcing channel), advanced past the ``t * width`` doubles of the
    trials before ``t``.
    """
    bits = np.random.PCG64(np.random.SeedSequence(seed).spawn(3)[stream])
    bits.advance(t * width)
    return np.random.Generator(bits).random(width)


def _trial_streams(config, t: int):
    """Trial ``t``'s drop uniforms, (B, B) fading powers and (B, B) channel normals.

    The drop window holds the ``M x 2`` positions, ``M`` request uniforms
    and ``1 + 2B`` scheduling uniforms.  Power ``[i, j]`` is the Exp(1)
    power ``-log1p(-u)`` from cluster ``j``'s transmitter to cluster
    ``i``'s receiver; the normals ``x, y`` come from ``B^2`` uniforms ``u``,
    then ``B^2`` uniforms ``v``, by Box-Muller.
    """
    b, m, seed = config.plan.n_clusters, config.plan.n_users, config.seed
    drop = stream_window(seed, 0, t, 3 * m + 1 + 2 * b)
    power = -np.log1p(-stream_window(seed, 1, t, b * b)).reshape(b, b)
    u, v = stream_window(seed, 2, t, 2 * b * b).reshape(2, b, b)
    r, a = np.sqrt(-2.0 * np.log1p(-u)), 2.0 * np.pi * v
    return drop, power, r * np.cos(a), r * np.sin(a)


def reference_campaign_records(config) -> np.ndarray:
    """Per-trial records of a campaign, recomputed one trial at a time.

    A plain transcription of the documented per-trial windows
    (:func:`_trial_streams`): trial ``t`` takes its positions, requests
    and ``1 + 2B`` scheduling uniforms from stream D (whether or not a
    choice uses them), each non-cooperative set's fading powers from
    stream F at the set's clusters, and a cooperative channel's normals
    from stream Z.  Every channel is inverted on its own (``cond`` +
    ``inv``, with the drop-worst-link fallback), and a ``tdma`` trial
    rates its four colour slots one after another.  Nothing here calls the
    simulator.
    """
    from coopd2d.netsim import TRIAL_DTYPE

    rows = [_reference_trial(config, t) for t in range(config.trials)]
    return np.array(rows, dtype=TRIAL_DTYPE)


def reference_link_rate_gap(config, edit_channel=None) -> tuple:
    """The link-rate means of ``netsim.link_rate_gap``, one snapshot at a time.

    Snapshot ``t`` of the first ``config.trials`` takes the windows of
    campaign trial ``t``: its positions, requests and scheduling choices,
    the fading of its cooperative set, and that of its non-cooperative
    set (``coop`` and ``nocoop`` strategies).  A snapshot whose
    cooperative channel is unusable is left out, as the campaign discards
    that trial.  A mean is a :func:`math.fsum` of the per-snapshot rate
    sums over the links that kept a non-zero rate, or 0 over no links.
    ``edit_channel(i, h)`` may replace the ``i``-th cooperative channel,
    counted in snapshot order, before it is rated.  Nothing here calls the
    simulator.
    """
    radio, floor, k = config.radio, config.min_pairing_distance_m, config.plan.users_per_cluster
    zf_sums, nc_sums, zf_n, nc_n, n_channels = [], [], 0, 0, 0
    for t in range(config.trials):
        drop, power, x, y = _trial_streams(config, t)
        positions, _, _, coop_links, noncoop_links = _reference_schedule(config, drop)
        if coop_links:
            h = composite_channel(_reference_gains(coop_links, positions, radio, floor), x, y)
            if edit_channel is not None:
                h = edit_channel(n_channels, h)
            n_channels += 1
            zf = reference_zf_channel_rates(h, radio.tx_power_w, radio.noise_w)
            if zf is None:
                continue
            zf_sums.append(float(zf.sum()))
            zf_n += int(np.count_nonzero(zf))
        nc = _reference_sinr_rates(noncoop_links, positions, radio, power, floor, k)
        nc_sums.append(float(nc.sum()))
        nc_n += len(noncoop_links)
    return math.fsum(zf_sums) / max(zf_n, 1), zf_n, math.fsum(nc_sums) / max(nc_n, 1), nc_n


def reference_positions(config, drop) -> np.ndarray:
    """(M, 2) user positions of one snapshot, ``u * side + corner``, from its drop uniforms.

    User ``j`` of cluster ``c`` sits in the cell of column ``c mod sqrt(B)``
    and row ``c // sqrt(B)``; ``drop`` starts with the ``M x 2`` unit-cell
    uniforms.
    """
    plan = config.plan
    b, side = plan.n_clusters, plan.cluster_side_m
    grid = math.isqrt(b)
    cell = np.repeat(np.arange(b), plan.users_per_cluster)
    origin = np.column_stack((cell % grid, cell // grid)) * side
    return drop[: 2 * plan.n_users].reshape(-1, 2) * side + origin


def _reference_schedule(config, drop):
    """Positions, requests, hit groups and links of one snapshot.

    ``drop`` holds the positions, then the requests, then ``1 + 2B``
    scheduling uniforms: the group's, each cluster's receiver's, and each
    cluster's pool user's.  A uniform ``u`` picks item ``int(u * n)`` of
    ``n`` candidates.  Links are ``(tx, rx)`` pairs of user indices.
    """
    plan = config.plan
    b, k = plan.n_clusters, plan.users_per_cluster
    m = b * k
    positions = reference_positions(config, drop)
    cdf = np.cumsum(config.popularity.group_probs).tolist()
    last = config.popularity.group_count - 1
    req = [min(bisect_right(cdf, u), last) for u in drop[2 * m : 3 * m].tolist()]
    rows = [req[c * k : (c + 1) * k] for c in range(b)]
    u = drop[3 * m :].tolist()
    u_group, u_rx, u_pool = u[0], u[1 : b + 1], u[b + 1 :]

    hit = {g for g in range(k) if all(g in row for row in rows)}
    restrict = config.strategy == "coop" and config.eta > 0.0 and bool(hit)
    coop_links = []
    if restrict:
        valid = [
            g for g in sorted(hit)
            if all(any(row[j] == g and j != g for j in range(k)) for row in rows)
        ]
        if valid:
            g = valid[int(u_group * len(valid))]
            for c, row in enumerate(rows):
                receivers = [j for j in range(k) if row[j] == g and j != g]
                coop_links.append((c * k + g, c * k + receivers[int(u_rx[c] * len(receivers))]))
    noncoop_links = []
    for c, row in enumerate(rows):
        pool = [
            j for j in range(k)
            if row[j] < k and row[j] != j and not (restrict and row[j] in hit)
        ]
        if pool:
            j = pool[int(u_pool[c] * len(pool))]
            noncoop_links.append((c * k + row[j], c * k + j))
    return positions, req, hit, coop_links, noncoop_links


def _reference_trial(config, t: int) -> tuple:
    plan, radio = config.plan, config.radio
    b, k = plan.n_clusters, plan.users_per_cluster
    m, grid = b * k, math.isqrt(b)
    drop, power, x, y = _trial_streams(config, t)
    positions, req, hit, coop_links, noncoop_links = _reference_schedule(config, drop)
    n_cellular = sum(r >= k for r in req)
    n_coop = sum(r in hit for r in req)
    mode = 1 if hit else 0
    restrict = config.strategy == "coop" and config.eta > 0.0 and mode == 1

    silent = b - len(noncoop_links)
    degenerate = int(restrict and not coop_links)
    w, eta = radio.bandwidth_hz, config.eta
    floor = config.min_pairing_distance_m
    dropped, coop_band = 0, 0.0
    if config.strategy == "tdma":
        total = 0.0
        for color in range(4):
            row_par, col_par = divmod(color, 2)
            slot = [
                (dt, dr) for dt, dr in noncoop_links
                if (dt // k) // grid % 2 == row_par and (dt // k) % grid % 2 == col_par
            ]
            nc = _reference_sinr_rates(slot, positions, radio, power, floor, k)
            total += w * float(nc.sum())
        throughput = total / 4.0
    else:
        band_share = 1.0
        if restrict:
            if coop_links:
                h = composite_channel(_reference_gains(coop_links, positions, radio, floor), x, y)
                zf = reference_zf_channel_rates(h, radio.tx_power_w, radio.noise_w)
                if zf is None:
                    return (mode, math.nan, n_coop, m - n_coop - n_cellular,
                            n_cellular, math.nan, 0, degenerate, silent, 1)
                dropped = int(np.count_nonzero(zf == 0.0))
                coop_band = eta * w * float(zf.sum())
            band_share = 1.0 - eta
        nc = _reference_sinr_rates(noncoop_links, positions, radio, power, floor, k)
        throughput = coop_band + band_share * w * float(nc.sum())
    return (mode, throughput, n_coop, m - n_coop - n_cellular, n_cellular,
            coop_band, dropped, degenerate, silent, 0)


def _reference_gains(links, positions, radio, floor):
    dt = positions[[a for a, _ in links]]
    dr = positions[[r for _, r in links]]
    d = np.maximum(np.linalg.norm(dr[:, None, :] - dt[None, :, :], axis=-1), floor)
    return radio.path_gain(d)


def _reference_sinr_rates(links, positions, radio, power, floor, k):
    """Rates of the links ``(tx, rx)``, one per cluster; ``power`` is the trial's (B, B) fading."""
    if not links:
        return np.zeros(0)
    gain = _reference_gains(links, positions, radio, floor)
    cluster = [rx // k for _, rx in links]
    received = radio.tx_power_w * (gain * power[np.ix_(cluster, cluster)])
    signal = np.diag(received).copy()
    return np.log2(1.0 + signal / (received.sum(axis=1) - signal + radio.noise_w))


def composite_channel(gain, x, y):
    """Rayleigh channel ``sqrt(gain / 2) * (x + i y)`` as one complex product."""
    return np.sqrt(gain / 2.0) * (x + 1j * y)


def reference_zf_channel_rates(h, p_w: float, noise_w: float):
    """Zero-forcing rates of one channel matrix, or None if it is unusable.

    Inverts the matrix; while its condition number exceeds 1e8, drops the
    link with the largest inverse-column norm (rate 0) and inverts the rest.
    """
    n = h.shape[0]
    rates = np.zeros(n)
    active = list(range(n))
    while active:
        sub = h[np.ix_(active, active)]
        cond = np.linalg.cond(sub)
        if not np.isfinite(cond):
            return None
        try:
            inv = np.linalg.inv(sub)
        except np.linalg.LinAlgError:
            return None
        col_norm2 = (np.abs(inv) ** 2).sum(axis=0)
        if cond <= 1e8:
            rates[active] = np.log2(1.0 + p_w / (noise_w * col_norm2))
            return rates
        active.pop(int(np.argmax(col_norm2)))
    return None
