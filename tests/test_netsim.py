"""Snapshot simulator: drops, scheduling, link rates, campaigns."""

import ast
import math
import pathlib
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from pytest import approx

from coopd2d import checks, netsim
from coopd2d.catalog import build_popularity, cumulative_cached_prob
from coopd2d.clusters import coop_probability, hit_probability, make_plan
from coopd2d.errors import ConfigurationError
from coopd2d.experiments import ExperimentSpec
from coopd2d.netsim import (
    ROLE_CELLULAR,
    ROLE_COOP,
    ROLE_NONCOOP,
    SimConfig,
    link_rate_gap,
    rate_sums,
    run_campaign,
    snapshot_counts,
    summarize,
)
from coopd2d.population import expected_coop_users_closed, expected_coop_users_exact
from coopd2d.rates import RadioParams

import oracles


def schedule_trial(request_of, k, b, choices, cooperation=True):
    """Links of one trial with explicit requests, as (tx, rx) user indices.

    Request counts, hit groups and roles are recomputed from ``request_of``;
    the cooperative set is formed iff ``cooperation`` and a group is hit.
    ``choices`` are the trial's ``1 + 2 * b`` scheduling uniforms.
    """
    req = np.asarray(request_of)
    counts = (req.reshape(b, k, 1) == np.arange(k)).sum(axis=1)
    hit = np.flatnonzero((counts > 0).all(axis=0))
    roles = np.full(b * k, ROLE_CELLULAR, dtype=np.int8)
    roles[req < k] = ROLE_NONCOOP
    roles[np.isin(req, hit)] = ROLE_COOP
    restrict = np.array([cooperation and hit.size > 0])
    choices = np.array([choices], dtype=float)
    links = netsim._pick_links(req[None], counts[None], roles[None], restrict, choices)
    return links_of_trial(links, 0, k)


def links_of_trial(links, t, k):
    """The cooperative and non-cooperative (tx, rx) links of trial ``t`` of a block."""
    coop = []
    for i in np.flatnonzero(links.coop == t).tolist():
        g = int(links.group[i])
        coop = [(c * k + g, c * k + j) for c, j in enumerate(links.coop_rx[i].tolist())]
    mine = links.nc_trial == t
    base = links.nc_cluster[mine] * k
    tx, rx = (base + links.nc_tx[mine]).tolist(), (base + links.nc_rx[mine]).tolist()
    return coop, list(zip(tx, rx))


def drops_of(config, start, stop):
    """Stages 1 and 2 of trials ``start .. stop - 1`` of ``config``."""
    return netsim._drop_block(config, netsim._drop_rows(config, start, stop))


def link_last(ends):
    """Ends given as (..., link, end, coordinate) in the kernels' (..., end, coordinate, link)."""
    return np.ascontiguousarray(np.moveaxis(ends, -3, -1))


def link_ends(*links):
    """Ends (1, 2, 2, n) of one link set given as ((tx_x, tx_y), (rx_x, rx_y)) per link."""
    return link_last(np.array([links], dtype=float))


@pytest.fixture(scope="module")
def ref_config(ref_plan, ref_radio, ref_model):
    return SimConfig(
        plan=ref_plan,
        radio=ref_radio,
        popularity=ref_model,
        strategy="coop",
        trials=300,
        seed=20230817,
        eta=0.8742774544276946,
    )


@pytest.fixture(scope="module")
def small_config(ref_radio, ref_model):
    # 4 clusters of 2 users on the 15-group catalog: cellular users common
    return SimConfig(
        plan=make_plan(75.0, 4, 2),
        radio=ref_radio,
        popularity=ref_model,
        strategy="coop",
        trials=200,
        seed=99,
        eta=0.5,
    )


@pytest.fixture(scope="module")
def sparse_config(ref_radio):
    # beta 0, B = 16: zero-forcing almost never runs, a third of the
    # requests are cellular
    return SimConfig(
        plan=make_plan(100.0, 16, 10),
        radio=ref_radio,
        popularity=build_popularity(300, 20, 0.0),
        strategy="coop",
        trials=300,
        seed=4242,
        eta=0.5,
    )


@pytest.fixture(scope="module")
def eta0_config(ref_config):
    # cooperation without a band: hit-group requesters join the non-coop pool
    return replace(ref_config, eta=0.0, trials=150)


@pytest.fixture(scope="module")
def single_cluster_config(ref_radio, ref_model):
    # B = 1: every requested cached group is hit, ZF is one 1x1 channel and
    # the four tdma slots hold one link at most
    return SimConfig(
        plan=make_plan(25.0, 1, 15),
        radio=ref_radio,
        popularity=ref_model,
        strategy="coop",
        trials=150,
        seed=31,
        eta=0.6,
    )


@pytest.fixture(scope="module")
def wide_catalog_config(ref_plan, ref_radio):
    # 200 groups: the requested groups take the int16 path of the bucket table
    return SimConfig(
        plan=ref_plan,
        radio=ref_radio,
        popularity=build_popularity(400, 2, 0.6),
        strategy="coop",
        trials=150,
        seed=808,
        eta=0.5,
    )


@pytest.fixture(scope="module")
def sparse_pairs_config(ref_radio, ref_model):
    # 2 users in each cluster of a 4 x 4 grid on the 15-group catalog:
    # silent clusters are common, so a block's link sets take many sizes
    return SimConfig(
        plan=make_plan(100.0, 16, 2),
        radio=ref_radio,
        popularity=ref_model,
        strategy="coop",
        trials=150,
        seed=7,
        eta=0.5,
    )


@pytest.mark.parametrize("strategy", ["coop", "nocoop", "tdma"])
@pytest.mark.parametrize(
    "base",
    [
        "ref_config", "sparse_config", "small_config", "eta0_config", "single_cluster_config",
        "wide_catalog_config", "sparse_pairs_config",
    ],
)
def test_campaign_records_match_the_per_trial_reference(request, base, strategy):
    """Every record equals the one-trial-at-a-time oracle, byte for byte."""
    config = request.getfixturevalue(base)
    assert config.trials % netsim._CHUNK  # a last, partial block
    if base == "wide_catalog_config":
        assert drops_of(config, 0, 1).request_of.dtype == np.int16
    if strategy != "coop":
        config = replace(config, strategy=strategy, eta=0.0)
    expected = oracles.reference_campaign_records(config)
    if base == "ref_config" and strategy == "coop":
        assert (expected["coop_band"] > 0).mean() > 0.9  # the ZF branch runs
    if base == "small_config":
        assert expected["silent_clusters"].any()
        if strategy == "coop":
            assert expected["degenerate"].any()
    if base == "single_cluster_config" and strategy == "coop":
        assert (expected["coop_band"] > 0).any()
    if base in ("sparse_config", "sparse_pairs_config"):
        # a block whose non-empty link sets have one size reads them as rows
        # of its links; one of mixed sizes gathers them, a stack per size
        n_sizes = set()
        for lo in range(0, config.trials, netsim._CHUNK):
            set_size = netsim._rate_block(config, lo, min(lo + netsim._CHUNK, config.trials)).nc_links
            n_sizes.add(np.unique(set_size[set_size > 0]).size)
        assert n_sizes == {1} if base == "sparse_config" else 1 not in n_sizes
    for n_jobs in (1, 2):
        records = run_campaign(config, n_jobs=n_jobs, keep_trials=True).trials
        assert records.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "base",
    ["ref_config", "sparse_config", "small_config", "eta0_config", "single_cluster_config"],
)
def test_link_rate_gap_matches_the_per_snapshot_reference(request, base):
    # a last, partial block
    config = replace(request.getfixturevalue(base), trials=netsim._CHUNK + 22)
    gap = link_rate_gap(config)
    assert gap == oracles.reference_link_rate_gap(config)
    if base in ("ref_config", "small_config", "single_cluster_config"):
        assert gap[1] > 0  # the zero-forcing branch runs


def test_link_rate_gap_reference_with_dropped_and_unusable_channels(ref_config, monkeypatch):
    config = replace(ref_config, trials=20)
    clean = link_rate_gap(config)
    assert clean[1] == 9 * config.trials

    def edit(i, h):  # channel 1: no usable channel; channel 2: ill-conditioned
        h = h.copy()
        if i == 1:
            h[:] = 0.0
        elif i == 2:
            h[1] = h[0] * (1.0 + 1e-9)
        return h

    original = netsim._zf_channel

    def broken(ends, normals, radio, min_distance_m):
        h = original(ends, normals, radio, min_distance_m)
        return np.stack([edit(i, channel) for i, channel in enumerate(h)])

    monkeypatch.setattr(netsim, "_zf_channel", broken)
    gap = link_rate_gap(config)
    assert gap == oracles.reference_link_rate_gap(config, edit_channel=edit)
    assert gap[1] == clean[1] - 9 - 1  # one channel lost, one link dropped
    # the campaign discards trial 1, and the gap leaves out its single-cell links
    records = run_campaign(config, keep_trials=True).trials
    assert np.flatnonzero(records["discarded"]).tolist() == [1]
    lost = config.plan.n_clusters - int(records["silent_clusters"][1])
    assert lost > 0
    assert gap[3] == clean[3] - lost


@pytest.mark.parametrize("strategy", ["coop", "nocoop", "tdma"])
def test_link_rate_gap_reads_the_campaign_trials(ref_config, monkeypatch, strategy):
    # snapshot t is campaign trial t: the gap's rate sums are the records'
    # bands, over the trials the campaign keeps; a tdma slot is active one
    # slot in four
    eta = 0.5 if strategy == "coop" else 0.0
    config = replace(ref_config, strategy=strategy, eta=eta)
    original = netsim._zf_channel

    def broken(ends, normals, radio, min_distance_m):  # no usable channel at 3 of each block
        h = original(ends, normals, radio, min_distance_m)
        h[3:4] = 0.0
        return h

    monkeypatch.setattr(netsim, "_zf_channel", broken)
    records = run_campaign(config, keep_trials=True).trials
    assert records["discarded"].any() == (strategy == "coop")
    kept = records[records["discarded"] == 0]
    w = config.radio.bandwidth_hz
    zf_mean, zf_links, nc_mean, nc_links = link_rate_gap(config)
    share = 1.0 - eta * kept["mode"]  # the non-cooperative band of each trial
    slots = 4.0 if strategy == "tdma" else 1.0
    nc_total = math.fsum((slots * (kept["throughput"] - kept["coop_band"]) / (w * share)).tolist())
    assert nc_total == approx(nc_mean * nc_links, rel=1e-12)
    zf_total = math.fsum(kept["coop_band"].tolist())
    if strategy == "coop":
        assert zf_links > 0
        assert zf_total / (eta * w) == approx(zf_mean * zf_links, rel=1e-12)
    else:
        assert zf_total == zf_links == 0


@pytest.mark.parametrize("n_jobs", [1, 2])
@pytest.mark.parametrize("base", ["ref_config", "sparse_config", "small_config"])
def test_one_rate_sum_table_gives_the_records_at_every_eta(request, ref_config, base, n_jobs):
    # the table reads eta only as eta > 0: one pass at eta = 0.5 gives the
    # campaign's records at any eta > 0, byte for byte; the small config
    # has Mode-1 trials that form no cooperative set
    config = replace(request.getfixturevalue(base), eta=0.5)
    sums = rate_sums(config, n_jobs)
    for eta in (0.011, ref_config.eta, 0.9, 1.0):
        at_eta = replace(config, eta=eta)
        expected = run_campaign(at_eta, n_jobs=n_jobs, keep_trials=True)
        result = summarize(at_eta, sums, keep_trials=True)
        assert result == expected
        assert result.trials.tobytes() == expected.trials.tobytes()
    if base == "small_config":
        assert expected.trials["degenerate"].any()


def test_summarize_refuses_a_table_of_another_schedule(ref_config):
    # a table serves every config of its schedule and length: coop at
    # eta = 0 runs nocoop's whole-band schedule, and nearly every reference
    # trial is in Mode 1, so the split table differs from it
    config = replace(ref_config, trials=60)
    whole = replace(config, eta=0.0)
    nocoop = rate_sums(replace(config, strategy="nocoop"))
    assert nocoop.zf_dropped.dtype == nocoop.nc_links.dtype == np.int16
    expected = run_campaign(whole, keep_trials=True)
    result = summarize(whole, nocoop, keep_trials=True)
    assert result == expected
    assert result.trials.tobytes() == expected.trials.tobytes()
    for cfg, other in (
        (whole, rate_sums(config)),
        (config, nocoop),
        (config, rate_sums(replace(config, strategy="tdma"))),
        (config, rate_sums(replace(config, trials=59))),
    ):
        with pytest.raises(ConfigurationError, match="^the rate-sum table"):
            summarize(cfg, other)


@pytest.mark.parametrize("strategy", ["coop", "nocoop", "tdma"])
def test_records_do_not_depend_on_the_block_size(ref_config, monkeypatch, strategy):
    config = replace(ref_config, trials=40, strategy=strategy)
    expected = run_campaign(config, keep_trials=True).trials.tobytes()
    monkeypatch.setattr(netsim, "_CHUNK", 7)
    assert run_campaign(config, keep_trials=True).trials.tobytes() == expected


@pytest.mark.parametrize(
    "seed",
    [0, 2**32 - 1, 2**32, 2**63, 2**64 + 5, 2**100 + 3],
    ids=lambda seed: "%d-trial" % seed,
)
def test_block_rows_match_per_trial_streams(seed):
    # a block's rows of each stream, at the widths of the reference grid
    # (D, F and Z at M = 135, B = 9), are the windows of trials drawn
    # alone; the second block crosses t = 2**32, and seeds of one to four
    # 32-bit words seed the streams
    for stream, width in ((netsim._DROPS, 424), (netsim._FADING, 81), (netsim._CHANNEL, 162)):
        for start, stop in ((0, 2), (2**32 - 1, 2**32 + 2)):
            rows = netsim._stream_rows(seed, stream, start, stop, width)
            assert rows.shape == (stop - start, width)
            for t, row in zip(range(start, stop), rows):
                assert row.tobytes() == oracles.stream_window(seed, stream, t, width).tobytes()
    heads = {netsim._stream_rows(seed, stream, 0, 1, 4).tobytes() for stream in range(3)}
    assert len(heads) == 3  # three different streams


def assert_rows_are_windows(seed, stream, start, stop, width):
    rows = netsim._stream_rows(seed, stream, start, stop, width)
    for t, row in zip(range(start, stop), rows):
        assert row.tobytes() == oracles.stream_window(seed, stream, t, width).tobytes()


def test_stream_rows_outlive_the_seeded_state_cache():
    # more (seed, stream) pairs than the cache of seeded states holds, twice
    # over: the second pass reseeds the pairs the first one evicted
    pairs = [(seed, stream) for seed in range(7, 7 + 30) for stream in range(3)]
    assert len(pairs) > netsim._seeded_state.cache_info().maxsize
    for start in (0, 3):
        for seed, stream in pairs:
            assert_rows_are_windows(seed, stream, start, start + 2, 5)


def test_stream_rows_of_interleaved_seeds_in_two_threads():
    # two threads take turns drawing blocks of seeds they share and seeds
    # of their own; each thread's generator takes the seeded state asked
    # for, whichever thread seeded it first
    turns = [threading.Event(), threading.Event()]
    errors = []

    def run(me, seeds):
        try:
            for lo, seed in enumerate(seeds):
                turns[me].wait(timeout=60)
                turns[me].clear()
                for stream in range(3):
                    assert_rows_are_windows(seed, stream, lo, lo + 3, 7)
                turns[1 - me].set()
        except Exception as exc:  # reported by the main thread
            errors.append(exc)
            turns[1 - me].set()

    threads = [
        threading.Thread(target=run, args=(0, [11, 12, 11, 13])),
        threading.Thread(target=run, args=(1, [12, 11, 14, 11])),
    ]
    for thread in threads:
        thread.start()
    turns[0].set()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


def test_stream_rows_on_a_new_threads_first_call():
    netsim._stream_rows(5, netsim._DROPS, 0, 1, 3)  # this thread's generator, at seed 5
    seen = []

    def first_call():
        seen.append(getattr(netsim._generators, "generator", None))
        assert_rows_are_windows(2**70 + 1, netsim._CHANNEL, 9, 11, 8)
        seen.append(True)

    thread = threading.Thread(target=first_call)
    thread.start()
    thread.join(timeout=60)
    assert seen == [None, True]


def calls_in(path, name):
    """Lines of the source file ``path`` that call a function or method named ``name``."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(pathlib.Path(path).read_text()))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == name
    ]


def test_netsim_builds_no_generator_outside_the_block_seeder():
    # every snapshot sampler of the package draws a block's rows of the
    # campaign streams in ``_stream_rows``, the one place that seeds a
    # ``PCG64``; only the self-checks draw their own independent samples
    package = pathlib.Path(netsim.__file__).parent
    callers = {p.name for p in package.glob("*.py") if calls_in(p, "default_rng")}
    assert callers == {"checks.py"}
    for name in ("PCG64", "SeedSequence", "advance", "random"):
        assert {p.name: len(calls_in(p, name)) for p in package.glob("*.py")
                if calls_in(p, name)} == {"netsim.py": 1}, name


def test_uniform_choice_stays_below_every_bound():
    # the largest double below 1 must not round up to h, for powers of two
    # and every bound between them
    h = np.arange(1, 2**20 + 1)
    top = np.nextafter(1.0, 0.0)
    assert np.array_equal(netsim._below(np.full(h.size, top), h), h - 1)
    assert not netsim._below(np.zeros(h.size), h).any()
    big = np.array([2**31 + 5, 2**40 - 3, 2**52 - 1, 2**52])
    assert np.array_equal(netsim._below(np.full(big.size, top), big), big - 1)


def test_netsim_draws_no_bounded_integers():
    assert calls_in(netsim.__file__, "integers") == []


def test_netsim_draws_fading_powers_not_normals():
    # every draw is a uniform of a campaign stream; normals (Box-Muller)
    # only for the zero-forcing channel, and a non-cooperative set's
    # fading power |h|^2 comes from its Exp(1) law, -log1p(-u), not squared
    for name in ("standard_normal", "standard_exponential", "normal", "exponential"):
        assert calls_in(netsim.__file__, name) == []
    assert len(calls_in(netsim.__file__, "_box_muller")) == 1
    tree = ast.parse(pathlib.Path(netsim.__file__).read_text())
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert "_fading_power" not in defined


def law_stats(a, tails):
    """Mean, variance and the tail probabilities of ``a``, each with its standard error."""
    var = a.var()
    fourth = np.mean((a - a.mean()) ** 4)
    yield a.mean(), math.sqrt(var / a.size)
    yield var, math.sqrt((fourth - var * var) / a.size)
    for t in tails:
        p = np.mean(a > t)
        yield p, math.sqrt(p * (1.0 - p) / a.size)


def assert_same_law(engine, reference, tails):
    assert engine.size >= 100_000
    for (a, se_a), (b, se_b) in zip(law_stats(engine, tails), law_stats(reference, tails)):
        assert abs(a - b) <= 4.0 * math.hypot(se_a, se_b)


def rated_inputs(monkeypatch, config, kernel, arg):
    """Copies of argument ``arg`` of every ``kernel`` call over six blocks of ``config``."""
    seen, original = [], getattr(netsim, kernel)

    def spy(*args):
        seen.append(args[arg].copy())
        return original(*args)

    monkeypatch.setattr(netsim, kernel, spy)
    for lo in range(0, 6 * netsim._CHUNK, netsim._CHUNK):
        netsim._rate_block(config, lo, lo + netsim._CHUNK)
    return np.concatenate([a.ravel() for a in seen])


def test_engine_fading_powers_follow_the_law_of_squared_normals(sparse_config, monkeypatch):
    # the powers of stream F that a nocoop block rates with, against
    # (x^2 + y^2) / 2 of standard normals: mean, variance and three tail
    # probabilities within 4 SE
    config = replace(sparse_config, strategy="nocoop")
    engine = rated_inputs(monkeypatch, config, "_sinr_rates", 1)
    x, y = np.random.default_rng(2024).standard_normal((2, engine.size))
    assert_same_law(engine, (x * x + y * y) / 2.0, (0.1, 1.0, 3.0))


def test_engine_channel_normals_follow_the_normal_law(ref_config, monkeypatch):
    # the Box-Muller normals of stream Z that coop blocks build their
    # zero-forcing channels from, against standard normals
    engine = rated_inputs(monkeypatch, ref_config, "_zf_channel", 1)
    reference = np.random.default_rng(2025).standard_normal(engine.size)
    assert_same_law(engine, reference, (-2.0, 0.5, 2.5))


@pytest.mark.parametrize("module", [netsim, checks], ids=lambda m: m.__name__)
def test_distances_are_taken_coordinate_wise(module):
    # np.linalg.norm over a length-2 axis copies its input; the tests keep
    # it as the independent route
    assert calls_in(module.__file__, "norm") == []


def norm_route_gains(ends, radio, floor):
    """Path gains of a stack of link ends (..., link, end, coordinate), by ``np.linalg.norm``."""
    tx, rx = ends[..., 0, :], ends[..., 1, :]
    d = np.linalg.norm(rx[..., :, None, :] - tx[..., None, :, :], axis=-1)
    assert (floor == 0.0) == (d >= floor).all()  # a 30 m floor binds in a 75 m square
    return radio.path_gain(np.maximum(d, floor))


@pytest.mark.parametrize("n", [1, 4, 9, 16])
@pytest.mark.parametrize("floor", [0.0, 30.0])
def test_path_gains_match_the_norm_route_bit_for_bit(ref_radio, n, floor):
    ends = np.random.default_rng(n).random((50, n, 2, 2)) * 75.0
    expected = norm_route_gains(ends, ref_radio, floor)
    assert netsim._path_gains(link_last(ends), ref_radio, floor).tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", [1, 4, 9, 16])
@pytest.mark.parametrize("floor", [0.0, 30.0])
def test_zf_channel_matches_the_complex_product_bit_for_bit(ref_radio, n, floor):
    ends, normals, _ = rating_inputs(50, n)
    gain = norm_route_gains(ends, ref_radio, floor)
    expected = oracles.composite_channel(gain, normals[:, 0], normals[:, 1])
    got = netsim._zf_channel(link_last(ends), normals, ref_radio, floor)
    assert got.dtype == expected.dtype and got.shape == expected.shape == (50, n, n)
    assert got.tobytes() == expected.tobytes()


def test_nth_true_matches_the_cumulative_count_rule():
    # flat positions in a (T, B, K) mask, as the block's pool is ranked:
    # rows of no True, the first and last rows among them, take no rank
    rng = np.random.default_rng(11)
    mask = rng.random((900, 15)) < rng.random((900, 1))
    mask[:300] = False
    mask[np.arange(300), rng.integers(0, 15, 300)] = True  # single-True rows
    mask[300:400, -1] = True  # a hit in the last column
    mask[400:450] = False
    mask[400:450, -1] = True  # the last column alone
    mask[~mask.any(axis=1), 0] = True
    mask[::7] = mask[1::11] = mask[-1] = False  # rows of no True, interleaved
    counts = mask.sum(axis=1)
    n = (rng.random(900) * counts).astype(np.int64)
    n[300:400] = np.maximum(counts[300:400] - 1, 0)  # the last True, in the last column
    column = np.argmax(mask.cumsum(axis=1) > n[:, None], axis=1)
    full = counts > 0
    assert not full[0] and not full[-1] and 0 < full.sum() < 800
    expected = (np.arange(900) * 15 + column)[full]
    got = netsim._nth_true(mask.reshape(100, 9, 15), counts[full], n[full])
    assert np.array_equal(got, expected)
    assert np.array_equal(got % 15, column[full])
    assert (column[300:450][full[300:450]] == 14).all()


@pytest.mark.parametrize("beta", [0.0, 0.4, 1.0, 3.0, 30.0])
@pytest.mark.parametrize("groups", [1, 2, 15, 40, 200])
def test_categorical_matches_the_clamped_search(beta, groups):
    # the groups come back in the smallest signed type that holds -groups
    cdf = np.cumsum(build_popularity(5 * groups, 5, beta).group_probs)
    edges = cdf[:-1]
    grid = np.arange(1, netsim._BUCKETS + 1) / netsim._BUCKETS
    keys = np.concatenate([
        np.random.default_rng(groups).random(20_000),
        edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0),  # on and beside every edge
        grid - grid, grid[:-1], np.nextafter(grid, 0.0),  # every bucket boundary and below it
    ])
    keys = keys[keys < 1.0]  # the range of ``random``
    # a strided column block, as the request uniforms sit in the block's draws
    draws = np.zeros((len(keys), 3))
    draws[:, 1] = keys
    u = draws[:, 1:2]
    expected = np.minimum(np.searchsorted(cdf, u, side="right"), len(cdf) - 1)
    got = netsim._categorical(cdf, u)
    assert got.dtype == (np.int8 if groups <= 128 else np.int16)
    assert got.shape == expected.shape
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("n", [1, 3, 9, 16])
def test_set_powers_match_the_index_gather(n):
    # sets of 1 .. n links of a block of 5 trials on a grid of n clusters:
    # each set's powers are its trial's fading at its (receiver,
    # transmitter) clusters
    fading = np.random.default_rng(n).random((5, n, n))
    fading[0, 0, 0] = 0.0  # the smallest uniform, power 0
    for size in sorted({1, (n + 1) // 2, n}):
        for trial in (np.array([0, 3, 3, 4]), np.array([], dtype=np.intp)):
            clusters = np.sort(np.random.default_rng(size).permutation(n)[:size])
            expected = -np.log1p(-fading[trial][:, clusters][:, :, clusters])
            got = netsim._set_powers(fading, trial, np.tile(clusters, (len(trial), 1)))
            assert got.shape == expected.shape == (len(trial), size, size)
            assert got.tobytes() == expected.tobytes()


def rating_inputs(t, n):
    """Ends (t, n, 2, 2) in a 75 m square, fading normals (t, 2, n, n) and powers (t, n, n).

    The kernels take the ends link-last (:func:`link_last`); the norm route
    reads them as drawn.
    """
    rng = np.random.default_rng(t * n)
    ends, normals = rng.random((t, n, 2, 2)) * 75.0, rng.standard_normal((t, 2, n, n))
    return ends, normals, rng.standard_exponential((t, n, n))


def test_rating_kernels_leave_their_inputs_unchanged(ref_radio):
    ends, normals, power = rating_inputs(20, 9)
    ends = link_last(ends)
    fading = np.random.default_rng(9).random((20, 9, 9))
    kept = [a.copy() for a in (ends, normals, power, fading)]
    netsim._set_powers(fading, np.array([0, 19]), np.array([[0, 1], [2, 8]]))
    netsim._path_gains(ends, ref_radio, 1.0)
    netsim._sinr_rates(ends, power, ref_radio, 1.0)
    netsim._zf_channel(ends, normals, ref_radio, 1.0)
    for before, after in zip(kept, (ends, normals, power, fading)):
        assert before.tobytes() == after.tobytes()


@pytest.mark.parametrize(
    "kernel, arrays", [("_path_gains", 3), ("_sinr_rates", 4), ("_zf_channel", 3)]
)
def test_rating_kernels_hold_few_stack_sized_temporaries(ref_radio, kernel, arrays):
    # the distances, the power and the product of ``RadioParams.path_gain``
    # are the three arrays of ``_path_gains``; ``_zf_channel`` holds the
    # gains and its complex stack, two real stacks' worth, and numpy's
    # fixed-size ufunc buffer, which reads the strided fading parts
    tracemalloc = pytest.importorskip("tracemalloc")
    ends, normals, power = rating_inputs(100, 16)
    ends = link_last(ends)
    args = {"_path_gains": (ends,), "_sinr_rates": (ends, power), "_zf_channel": (ends, normals)}
    args = args[kernel]
    call = getattr(netsim, kernel)
    call(*args, ref_radio, 1.0)  # warm up numpy's caches
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        call(*args, ref_radio, 1.0)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    buffer = 8 * np.getbufsize() if kernel == "_zf_channel" else 0
    assert peak <= arrays * power.nbytes + buffer + 4096  # the arrays and their headers


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0, 3.68, 4])
def test_path_gains_apply_the_radio_law_bit_for_bit(ref_radio, alpha):
    # _path_gains applies RadioParams.path_gain in place, including the
    # exponents numpy's ``**`` computes by a special ufunc (-1: reciprocal)
    radio = replace(ref_radio, alpha=alpha)
    ends = np.random.default_rng(7).random((30, 4, 2, 2)) * 75.0
    expected = norm_route_gains(ends, radio, 30.0)
    assert netsim._path_gains(link_last(ends), radio, 30.0).tobytes() == expected.tobytes()


def fields_of(rated):
    """Every array a rated block hands back: its rate sums and role counts."""
    return list(rated)


@pytest.mark.parametrize("strategy", ["coop", "tdma"])
def test_held_block_results_survive_the_next_block(ref_config, sparse_config, strategy):
    # the next block on the thread reuses the workspace, never a held result
    config = replace(ref_config, strategy=strategy)
    rated = netsim._rate_block(config, 0, 60)
    drops = drops_of(config, 60, 90)
    records = run_campaign(replace(config, trials=60), keep_trials=True).trials
    held = fields_of(rated) + list(drops) + [records]
    copies = [a.copy() for a in held]
    # first the same shapes, so the workspace is overwritten in place
    for other in (replace(config, seed=6), replace(sparse_config, strategy=strategy, seed=5)):
        netsim._rate_block(other, 0, 60)
        drops_of(other, 0, 30)
        run_campaign(replace(other, trials=60), keep_trials=True)
    for before, after in zip(copies, held):
        assert before.dtype == after.dtype and before.shape == after.shape
        assert before.tobytes() == after.tobytes()


def test_campaigns_in_threads_match_serial_runs(ref_config, sparse_config):
    # each thread has its own workspace: campaigns of several blocks each,
    # more than the cores and run at once with frequent thread switches,
    # give the serial records
    configs = [
        replace(base, strategy=strategy, trials=3 * netsim._CHUNK + 17)
        for base in (ref_config, sparse_config)
        for strategy in ("coop", "tdma")
    ]
    serial = [run_campaign(c, keep_trials=True).trials.tobytes() for c in configs]
    start = threading.Barrier(len(configs))

    def run(config):
        start.wait(timeout=60)
        return run_campaign(config, keep_trials=True).trials.tobytes()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(configs)) as pool:
            threaded = list(pool.map(run, configs, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


@pytest.mark.parametrize("strategy", ["coop", "nocoop", "tdma"])
def test_warm_block_allocates_no_array_as_large_as_its_draws(sparse_config, strategy):
    # The block's draws, fading normals and powers, gathered stacks and
    # path gains come from the thread's workspace.  On a warm block at the
    # campaign-sparse geometry the traced peak above what the block hands
    # back stays below one draws array (8 * T * (3M + 1 + 2B) bytes, 525 KB
    # here); with those arrays allocated per block it held several.
    tracemalloc = pytest.importorskip("tracemalloc")
    config = replace(sparse_config, strategy=strategy)
    plan, n = config.plan, netsim._CHUNK
    draws_nbytes = 8 * n * (3 * plan.n_users + 1 + 2 * plan.n_clusters)
    netsim._rate_block(config, 0, n)  # warm the workspace; the same block: no buffer grows
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        rated = netsim._rate_block(config, 0, n)
        kept, peak = (size - start for size in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert kept >= sum(a.nbytes for a in fields_of(rated)) > 0
    assert peak - kept < draws_nbytes


@pytest.mark.parametrize("strategy", ["coop", "nocoop", "tdma"])
def test_warm_block_at_the_reference_geometry_allocates_no_array_as_large_as_its_draws(
    ref_config, strategy
):
    # the same bound at campaign-ref's geometry (135 users, B = 9, beta 1),
    # where every coop trial forms a cooperative set
    test_warm_block_allocates_no_array_as_large_as_its_draws(ref_config, strategy)


def test_a_block_without_links_draws_no_fading(ref_radio, ref_model):
    # with one user per cluster no trial has a link, so the block draws no
    # (T, B, B) fading rows: 100 MB for 2 trials at B = 2500
    tracemalloc = pytest.importorskip("tracemalloc")
    config = SimConfig(
        plan=make_plan(1250.0, 2500, 1), radio=ref_radio, popularity=ref_model,
        strategy="nocoop", trials=2, seed=1,
    )
    tracemalloc.start()
    try:
        records = run_campaign(config, keep_trials=True).trials
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (records["silent_clusters"] == 2500).all()
    assert peak < 8 * 2 * 2500**2 // 10


def test_snapshot_shapes_and_cell_confinement(ref_config):
    # every user of a trial, at both link ends, sits in its cluster's cell
    plan = ref_config.plan
    m, d = plan.n_users, plan.cluster_side_m
    draws = netsim._drop_rows(ref_config, 0, 1)
    drops = netsim._drop_block(ref_config, draws)
    assert drops.request_of.shape == (1, m)
    users = np.arange(m)[None]
    ends = netsim._block_ends(ref_config, draws, np.zeros((1, 1), dtype=np.intp), users, users)
    assert ends.shape == (1, 2, 2, m)
    grid = math.isqrt(plan.n_clusters)
    cluster_of = np.repeat(np.arange(plan.n_clusters), plan.users_per_cluster)
    for end in (0, 1):
        col = np.floor(ends[0, end, 0] / d).astype(int)
        row = np.floor(ends[0, end, 1] / d).astype(int)
        assert np.array_equal(row * grid + col, cluster_of)


@pytest.mark.parametrize("base", ["ref_config", "sparse_config", "small_config"])
def test_block_ends_are_the_oracles_positions_link_last(request, base):
    # ends[s, e, c, l], coordinate c of end e of link l of set s, is the
    # oracle's u * d + corner of that user, bit for bit, for links between
    # any users of any trials of a block
    config = request.getfixturevalue(base)
    m, lo = config.plan.n_users, 3
    draws = netsim._drop_rows(config, lo, lo + 10)
    rng = np.random.default_rng(m)
    trial = rng.integers(0, 10, (6, 1))
    tx, rx = rng.integers(0, m, (2, 6, 5))
    ends = netsim._block_ends(config, draws, trial, tx, rx)
    assert ends.shape == (6, 2, 2, 5) and ends.flags.c_contiguous
    for s, t in enumerate(trial[:, 0].tolist()):
        drop = oracles.stream_window(config.seed, 0, lo + t, draws.shape[1])
        position = oracles.reference_positions(config, drop)
        expected = np.stack([position[tx[s]].T, position[rx[s]].T])  # (end, coordinate, link)
        assert ends[s].tobytes() == expected.tobytes()


def test_snapshot_roles_partition(small_config):
    k = small_config.plan.users_per_cluster
    b = small_config.plan.n_clusters
    drops = drops_of(small_config, 0, 50)
    for request_of, hit_mask, roles in zip(drops.request_of, drops.hit, drops.roles):
        per_cluster = request_of.reshape(b, k)
        hit = {
            g
            for g in range(k)
            if all((per_cluster[c] == g).any() for c in range(b))
        }
        assert set(np.flatnonzero(hit_mask).tolist()) == hit
        for user, req in enumerate(request_of):
            if req >= k:
                assert roles[user] == ROLE_CELLULAR
            elif req in hit:
                assert roles[user] == ROLE_COOP
            else:
                assert roles[user] == ROLE_NONCOOP
    assert (drops.request_of >= k).any()  # the small catalog slice leaves uncached demand


def test_snapshot_determinism(ref_config):
    rows = [netsim._drop_rows(ref_config, t, t + 1).copy() for t in (7, 7)]
    assert np.array_equal(*rows)  # the position uniforms among them
    a = drops_of(ref_config, 7, 8)
    b = drops_of(ref_config, 7, 8)
    c = drops_of(ref_config, 8, 9)
    assert np.array_equal(a.choices, b.choices)
    assert np.array_equal(a.request_of, b.request_of)
    assert not np.array_equal(a.request_of, c.request_of)


def test_schedule_deterministic_single_cluster():
    # requests (1, 1, 2): group 1 is hit with a non-caching requester, group 2
    # only by its own cacher
    choices = [0.3, 0.6, 0.9]
    coop, noncoop = schedule_trial([1, 1, 2], 3, 1, choices)
    assert coop == [(1, 0)]  # cacher of group 1 serves user 0
    assert noncoop == []  # the only other cached request is the hit group
    coop_off, noncoop_off = schedule_trial([1, 1, 2], 3, 1, choices, cooperation=False)
    assert coop_off == []
    assert noncoop_off == [(1, 0)]  # same pair, now on the shared band


def test_schedule_degenerate_hit_without_receiver():
    # group 0 is hit everywhere but cluster 1's only requester caches it
    coop, noncoop = schedule_trial([0, 0, 0, 1], 2, 2, [0.5] * 5)
    assert coop == []
    assert noncoop == []


def test_schedule_mode0_forms_no_coop_links():
    coop, noncoop = schedule_trial([2, 2, 2, 2], 2, 2, [0.5] * 5)
    assert coop == []
    assert noncoop == []  # nobody requested a cached group


def test_schedule_reserves_hit_requesters_for_the_coop_band():
    # both cached groups are hit and every cached request belongs to a hit
    # group: the non-coop pool is empty under cooperation and non-empty
    # without it; a uniform below 1/2 picks the first of the two candidates
    for u, sender in ((0.0, 0), (0.49, 0), (0.5, 1), (0.99, 1)):
        coop, noncoop = schedule_trial([1, 0], 2, 1, [u, 0.0, 0.0])
        assert coop == [(sender, 1 - sender)]
        assert noncoop == []
        _, noncoop_off = schedule_trial([1, 0], 2, 1, [0.0, 0.0, u], cooperation=False)
        assert noncoop_off == [(1 - sender, sender)]


def test_schedule_reads_the_uniforms_in_order():
    # the group's uniform, then each cluster's receiver's, then each
    # cluster's pool user's; clusters of three users with requests (1, 0, 0)
    # and (2, 0, 1): groups 0 and 1 are hit, both with a receiver in every
    # cluster, and group 2 is not hit
    request_of = [1, 0, 0, 2, 0, 1]
    coop, noncoop = schedule_trial(request_of, 3, 2, [0.2, 0.7, 0.0, 0.0, 0.0])
    assert coop == [(0, 2), (3, 4)]  # group 0, the second of its receivers in cluster 0
    assert noncoop == [(5, 3)]  # the only pool: group 2's requester in cluster 1
    coop, _ = schedule_trial(request_of, 3, 2, [0.2, 0.3, 0.0, 0.0, 0.0])
    assert coop == [(0, 1), (3, 4)]
    coop, _ = schedule_trial(request_of, 3, 2, [0.8, 0.7, 0.0, 0.0, 0.0])
    assert coop == [(1, 0), (4, 5)]  # group 1
    _, noncoop = schedule_trial(request_of, 3, 2, [0.9, 0.9, 0.9, 0.5, 0.9], cooperation=False)
    assert noncoop == [(0, 1), (4, 5)]  # every cached request is in a pool


def test_schedule_link_invariants(ref_config):
    k = ref_config.plan.users_per_cluster
    b = ref_config.plan.n_clusters
    n = 100
    drops = drops_of(ref_config, 0, n)
    restrict = drops.hit.any(axis=1)
    choices = np.random.default_rng(5).random((n, 1 + 2 * b))
    links = netsim._pick_links(drops.request_of, drops.counts, drops.roles, restrict, choices)
    req = drops.request_of.reshape(n, b, k)
    assert links.coop.size > n // 2
    assert np.all(restrict[links.coop])
    g = links.group
    assert np.all(drops.hit[links.coop, g])  # one hit group, sent network-wide
    coop_requests = np.take_along_axis(req[links.coop], links.coop_rx[:, :, None], axis=2)
    assert np.all(coop_requests[:, :, 0] == g[:, None])  # every cluster's receiver wants it
    assert np.all(links.coop_rx != g[:, None])  # and does not cache it
    cluster_of_link = links.nc_trial * b + links.nc_cluster
    assert np.unique(cluster_of_link).size == cluster_of_link.size  # at most one per cluster
    assert np.all(links.nc_tx != links.nc_rx)
    assert np.all(req[links.nc_trial, links.nc_cluster, links.nc_rx] == links.nc_tx)
    assert not np.any(drops.hit[links.nc_trial, links.nc_tx])  # hit requesters wait


@pytest.mark.parametrize("base", ["ref_config", "small_config"])
@pytest.mark.parametrize("which", ["all", "none", "every other"])
def test_pick_links_restricts_only_the_flagged_trials(request, base, which):
    # the block schedules each trial as it would be scheduled alone; the
    # small config has Mode-1 trials whose hit groups have no receiver
    config = request.getfixturevalue(base)
    b, k = config.plan.n_clusters, config.plan.users_per_cluster
    n = 60
    drops = drops_of(config, 0, n)
    trial = np.arange(n)
    flagged = {"all": trial >= 0, "none": trial < 0, "every other": trial % 2 == 0}[which]
    restrict = flagged & drops.hit.any(axis=1)
    assert restrict.any() == (which != "none")
    links = netsim._pick_links(
        drops.request_of, drops.counts, drops.roles, restrict, drops.choices
    )
    for t in range(n):
        expected = schedule_trial(drops.request_of[t], k, b, drops.choices[t], bool(flagged[t]))
        assert links_of_trial(links, t, k) == expected


@pytest.mark.parametrize("base", ["ref_config", "small_config", "sparse_pairs_config"])
def test_tdma_order_picks_the_same_links_slot_by_slot(request, base):
    # ranked in colour order, the pools give each cluster the link it gets
    # in cluster order, and the links come out slot by slot: (trial,
    # colour) ascending, clusters ascending within a slot.  The 3 x 3 grid's
    # slots hold 4, 2, 2 and 1 clusters; the small configs leave clusters
    # silent
    config = request.getfixturevalue(base)
    b, n = config.plan.n_clusters, 100
    grid = math.isqrt(b)
    drops = drops_of(config, 0, n)
    args = (drops.request_of, drops.counts, drops.roles, np.zeros(n, dtype=bool), drops.choices)
    plain = netsim._pick_links(*args)
    colour, order = netsim._colours(b)
    ranked = netsim._pick_links(*args, order)
    row, col = np.divmod(np.arange(b), grid)
    assert np.array_equal(colour, 2 * (row % 2) + col % 2)
    if base == "ref_config":
        assert np.bincount(colour).tolist() == [4, 2, 2, 1]
    else:
        assert 0 < plain.nc_trial.size < n * b
    key = plain.nc_trial * b + plain.nc_cluster
    assert (np.diff(key) > 0).all()  # trial, then cluster order
    same = np.argsort(ranked.nc_trial * b + ranked.nc_cluster)
    for name in ("nc_trial", "nc_cluster", "nc_tx", "nc_rx"):
        assert np.array_equal(getattr(ranked, name)[same], getattr(plain, name))
    slot = ranked.nc_trial * 4 + colour[ranked.nc_cluster]
    assert (np.diff(slot) >= 0).all()
    assert (np.diff(ranked.nc_cluster)[np.diff(slot) == 0] > 0).all()


def aggregate_reference(records, n_clusters):
    """The :class:`SimResult` fields of ``records``, each from its kept trials' values."""
    kept = [dict(zip(records.dtype.names, r)) for r in records.tolist()]
    kept = [r for r in kept if not r["discarded"]]
    n = len(kept)

    def mean(name):
        return math.fsum(r[name] for r in kept) / n

    thr = mean("throughput")
    std = math.sqrt(math.fsum((r["throughput"] - thr) ** 2 for r in kept) / (n - 1))
    counts = (mean("n_coop"), mean("n_noncoop"), mean("n_cellular"))
    return {
        "throughput_mean": thr,
        "throughput_ci95": 1.96 * std / math.sqrt(n),
        "user_throughput_coop": mean("coop_band") / counts[0],
        "user_throughput_noncoop": (thr - mean("coop_band")) / counts[1],
        "mode1_frequency": mean("mode"),
        "mean_counts": counts,
        "n_trials": n,
        "discarded_trials": len(records) - n,
        "degenerate_mode1_trials": sum(r["degenerate"] for r in kept),
        "dropped_link_fraction": sum(r["dropped_links"] for r in kept) / (n * n_clusters),
        "silent_cluster_fraction": sum(r["silent_clusters"] for r in kept) / (n * n_clusters),
    }


@pytest.mark.parametrize("discard", [False, True])
def test_role_counts_and_aggregates_match_the_per_field_reference(
    ref_config, monkeypatch, discard
):
    # with a discarded trial the kept records are a copy; without one, the
    # record array itself
    config = replace(ref_config, trials=6)
    if discard:
        original = netsim._zf_channel

        def broken(ends, normals, radio, min_distance_m):
            h = original(ends, normals, radio, min_distance_m)
            h[1] = 0.0  # trial 1: no usable channel
            return h

        monkeypatch.setattr(netsim, "_zf_channel", broken)
    result = run_campaign(config, keep_trials=True)
    records = result.trials
    assert records["discarded"].tolist() == [0, int(discard), 0, 0, 0, 0]
    roles = drops_of(config, 0, 6).roles
    names = {ROLE_COOP: "n_coop", ROLE_NONCOOP: "n_noncoop", ROLE_CELLULAR: "n_cellular"}
    for code, name in names.items():
        assert records[name].tolist() == np.count_nonzero(roles == code, axis=1).tolist()
    for name, expected in aggregate_reference(records, config.plan.n_clusters).items():
        got = getattr(result, name)
        assert type(got) is type(expected) and got == approx(expected, rel=1e-14), name


def numpy_aggregate(records, n_clusters):
    """The :class:`SimResult` fields of ``records`` through numpy's ``mean``, ``std`` and ``sum``."""
    trials = len(records)
    valid = records["discarded"] == 0
    n_valid = int(valid.sum())
    kept = records if n_valid == trials else records[valid]
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
    return {
        "throughput_mean": mean,
        "throughput_ci95": ci95,
        "user_throughput_coop": (coop_band_mean / mean_coop) if mean_coop else 0.0,
        "user_throughput_noncoop": (noncoop_band_mean / mean_noncoop) if mean_noncoop else 0.0,
        "mode1_frequency": float(kept["mode"].mean()) if n_valid else math.nan,
        "mean_counts": (mean_coop, mean_noncoop, mean_cell),
        "n_trials": n_valid,
        "discarded_trials": trials - n_valid,
        "degenerate_mode1_trials": int(kept["degenerate"].sum()),
        "dropped_link_fraction": float(kept["dropped_links"].sum()) / max(1, n_valid * n_clusters),
        "silent_cluster_fraction": (
            float(kept["silent_clusters"].sum()) / max(1, n_valid * n_clusters)
        ),
    }


def assert_same_float(got, expected, name):
    assert type(got) is type(expected), name
    if isinstance(expected, float) and math.isnan(expected):
        assert math.isnan(got), name
    else:
        assert got == expected, name


@pytest.mark.parametrize("unusable", ["none", "one", "all_but_one", "all"])
def test_aggregates_equal_numpys_mean_and_std_bit_for_bit(ref_config, monkeypatch, unusable):
    # run_campaign sums with ``add.reduce``; every field must be the bits of
    # numpy's ``mean``, ``std(ddof=1)`` and ``sum`` on the kept records.  Over
    # 8 or more values numpy's pairwise sum runs eight partial sums; at 60
    # trials of this seed, a running sum of the throughputs, of their
    # squared deviations or of the coop bands, or a ``math.fsum`` of the
    # throughputs or coop bands, moves a field's last bits
    n = 60
    config = replace(ref_config, trials=n)
    zeroed = {"none": slice(0), "one": slice(1, 2), "all_but_one": slice(1, None)}
    zeroed = zeroed.get(unusable, slice(None))
    original = netsim._zf_channel

    def broken(ends, normals, radio, min_distance_m):
        h = original(ends, normals, radio, min_distance_m)
        h[zeroed] = 0.0  # these trials' channels: none usable
        return h

    monkeypatch.setattr(netsim, "_zf_channel", broken)
    result = run_campaign(config, keep_trials=True)
    records = result.trials
    assert records["discarded"].tolist() == np.isin(np.arange(n), np.arange(n)[zeroed]).tolist()
    expected = numpy_aggregate(records, config.plan.n_clusters)
    assert expected["n_trials"] == {"none": n, "one": n - 1, "all_but_one": 1, "all": 0}[unusable]
    if unusable == "all_but_one":
        assert expected["throughput_ci95"] == 0.0
    if unusable == "all":
        assert math.isnan(expected["throughput_mean"])
    assert result.strategy == config.strategy
    for name, want in expected.items():
        got = getattr(result, name)
        if name == "mean_counts":
            assert type(got) is tuple and len(got) == 3
            for i, (g, w) in enumerate(zip(got, want)):
                assert_same_float(g, w, "%s[%d]" % (name, i))
        else:
            assert_same_float(got, want, name)


def test_zf_single_link_matches_direct_formula(ref_radio):
    normals = np.random.default_rng(42).standard_normal(2).reshape(1, 2, 1, 1)
    h = netsim._zf_channel(link_ends(((0.0, 0.0), (10.0, 0.0))), normals, ref_radio, 0.0)
    rates, usable = netsim._zf_stack(h, ref_radio.tx_power_w, ref_radio.noise_w)
    x, y = np.random.default_rng(42).standard_normal(2)
    h2 = ref_radio.path_gain(10.0) / 2.0 * (x * x + y * y)
    expected = math.log2(1.0 + ref_radio.tx_power_w * h2 / ref_radio.noise_w)
    assert usable.tolist() == [True]
    assert rates[0, 0] == approx(expected, rel=1e-12)


def test_zf_identity_channel_decouples_streams(ref_radio):
    rates, usable = netsim._zf_stack(
        np.eye(3, dtype=complex)[None], ref_radio.tx_power_w, ref_radio.noise_w
    )
    expected = math.log2(1.0 + ref_radio.tx_power_w / ref_radio.noise_w)
    assert expected == approx(38.20217309120923, rel=1e-13)
    assert usable.tolist() == [True]
    np.testing.assert_allclose(rates[0], expected, rtol=1e-13)


def test_zf_drops_worst_link_of_an_ill_conditioned_channel(ref_radio):
    channel = np.array([[[1.0, 1.0], [1.0, 1.0 + 1e-12]]], dtype=complex)
    rates, usable = netsim._zf_stack(channel, ref_radio.tx_power_w, ref_radio.noise_w)
    assert usable.tolist() == [True]
    assert np.count_nonzero(rates[0] == 0.0) == 1
    assert rates.max() > 0.0


def test_zf_singular_channel_is_unusable(ref_radio):
    channel = np.ones((1, 2, 2), dtype=complex)
    rates, usable = netsim._zf_stack(channel, ref_radio.tx_power_w, ref_radio.noise_w)
    assert usable.tolist() == [False]
    assert not rates.any()


def test_zf_stack_falls_back_one_matrix_at_a_time(ref_radio):
    rng = np.random.default_rng(7)
    well = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    ill = well.copy()
    ill[1] = ill[0] * (1.0 + 1e-12)  # two nearly equal rows
    singular = np.zeros((3, 3), dtype=complex)
    assert 1e8 < np.linalg.cond(ill) < np.inf
    p_w, noise_w = ref_radio.tx_power_w, ref_radio.noise_w
    stack = np.stack([well, ill, singular, well])
    rates, usable = netsim._zf_stack(stack, p_w, noise_w)
    assert usable.tolist() == [True, True, False, True]
    assert oracles.reference_zf_channel_rates(singular, p_w, noise_w) is None
    for i in (0, 1, 3):
        expected = oracles.reference_zf_channel_rates(stack[i], p_w, noise_w)
        assert rates[i].tobytes() == expected.tobytes()
    assert np.count_nonzero(rates[1] == 0.0) == 1
    assert np.count_nonzero(rates[0] == 0.0) == 0


@pytest.mark.parametrize("with_singular", [False, True])
def test_zf_screen_matches_the_exact_condition_number(ref_radio, monkeypatch, with_singular):
    """Each kind of channel gets the one-matrix oracle's rates, byte for byte.

    Only the channels the screen cannot clear reach the exact condition
    number, also in a stack with a singular matrix.
    """
    rng = np.random.default_rng(11)
    well = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    u, _, vh = np.linalg.svd(well)
    near = u @ np.diag([1.0, 1.0, 1.0, 2e-8]) @ vh  # fails the screen, cond below the limit
    ill = well.copy()
    ill[1] = ill[0] * (1.0 + 1e-12)
    fro = np.linalg.norm(near) * np.linalg.norm(np.linalg.inv(near))
    assert fro > netsim._COND_LIMIT / 8 and np.linalg.cond(near) < netsim._COND_LIMIT
    assert np.linalg.cond(ill) > netsim._COND_LIMIT
    stack = [well, near, ill] + [np.zeros((4, 4), dtype=complex)] * with_singular
    p_w, noise_w = ref_radio.tx_power_w, ref_radio.noise_w
    exact = []
    cond = np.linalg.cond
    monkeypatch.setattr(np.linalg, "cond", lambda x: exact.append(x.tobytes()) or cond(x))
    rates, usable = netsim._zf_stack(np.stack(stack), p_w, noise_w)
    monkeypatch.undo()
    assert usable.tolist() == [True, True, True] + [False] * with_singular
    assert well.tobytes() not in exact
    assert near.tobytes() in exact and ill.tobytes() in exact
    for i, channel in enumerate(stack):
        expected = oracles.reference_zf_channel_rates(channel, p_w, noise_w)
        if expected is None:
            assert not rates[i].any()
        else:
            assert rates[i].tobytes() == expected.tobytes()
    assert np.count_nonzero(rates[:3] == 0.0, axis=1).tolist() == [0, 0, 1]


def test_reference_campaign_takes_no_exact_condition_number(ref_config, monkeypatch):
    calls = []
    cond = np.linalg.cond
    monkeypatch.setattr(np.linalg, "cond", lambda *a, **kw: calls.append(1) or cond(*a, **kw))
    records = run_campaign(replace(ref_config, trials=200), keep_trials=True).trials
    assert (records["coop_band"] > 0).mean() > 0.9  # the ZF branch runs
    assert calls == []


def test_unusable_channel_discards_only_its_trial(ref_config, monkeypatch):
    config = replace(ref_config, trials=6)
    clean = run_campaign(config, keep_trials=True).trials
    assert np.all(clean["coop_band"][:3] > 0.0)  # trials 0-2 stack their ZF sets
    original = netsim._zf_channel
    ill = []

    def broken(ends, normals, radio, min_distance_m):
        h = original(ends, normals, radio, min_distance_m)
        h[1] = 0.0  # trial 1: no usable channel
        h[2, 1] = h[2, 0] * (1.0 + 1e-12)  # trial 2: ill-conditioned
        ill.append(h[2].copy())
        return h

    monkeypatch.setattr(netsim, "_zf_channel", broken)
    records = run_campaign(config, keep_trials=True).trials
    for t in (0, 3, 4, 5):
        assert records[t].tobytes() == clean[t].tobytes()
    lost = records[1]
    assert lost["discarded"] == 1 and lost["dropped_links"] == 0
    assert math.isnan(lost["throughput"]) and math.isnan(lost["coop_band"])
    for name in ("mode", "n_coop", "n_noncoop", "n_cellular", "degenerate", "silent_clusters"):
        assert lost[name] == clean[1][name]
    radio = config.radio
    expected = oracles.reference_zf_channel_rates(ill[0], radio.tx_power_w, radio.noise_w)
    assert records[2]["discarded"] == 0
    assert records[2]["dropped_links"] == np.count_nonzero(expected == 0.0) == 1
    assert records[2]["coop_band"] == config.eta * radio.bandwidth_hz * float(expected.sum())


def test_noncoop_single_link_is_pure_snr(ref_radio):
    ends = link_ends(((0.0, 0.0), (10.0, 0.0)))
    rates = netsim._sinr_rates(ends, np.ones((1, 1, 1)), ref_radio, 0.0)
    expected = math.log2(
        1.0 + ref_radio.tx_power_w * ref_radio.path_gain(10.0) / ref_radio.noise_w
    )
    assert rates[0, 0] == approx(expected, rel=1e-12)


def test_noncoop_single_link_fading_replay(ref_radio):
    fading = np.random.default_rng(5).standard_exponential((1, 1, 1))
    ends = link_ends(((0.0, 0.0), (10.0, 0.0)))
    rates = netsim._sinr_rates(ends, fading, ref_radio, 0.0)
    (draw,) = np.random.default_rng(5).standard_exponential(1)
    power = ref_radio.path_gain(10.0) * draw
    expected = math.log2(1.0 + ref_radio.tx_power_w * power / ref_radio.noise_w)
    assert rates[0, 0] == approx(expected, rel=1e-12)


def test_noncoop_two_links_hand_computed(ref_radio):
    # parallel links 5 m apart; cross distances sqrt(125)
    ends = link_ends(((0.0, 0.0), (10.0, 0.0)), ((0.0, 5.0), (10.0, 5.0)))
    rates = netsim._sinr_rates(ends, np.ones((1, 2, 2)), ref_radio, 0.0)
    p = ref_radio.tx_power_w
    signal = p * ref_radio.path_gain(10.0)
    cross = p * ref_radio.path_gain(math.sqrt(125.0))
    expected = math.log2(1.0 + signal / (cross + ref_radio.noise_w))
    np.testing.assert_allclose(rates[0], expected, rtol=1e-12)


def test_noncoop_distance_floor(ref_radio):
    ends = link_ends(((0.0, 0.0), (0.5, 0.0)))
    floored = netsim._sinr_rates(ends, np.ones((1, 1, 1)), ref_radio, 1.0)
    expected = math.log2(
        1.0 + ref_radio.tx_power_w * ref_radio.path_gain(1.0) / ref_radio.noise_w
    )
    assert floored[0, 0] == approx(expected, rel=1e-12)


def test_campaign_per_trial_invariants(ref_config):
    result = run_campaign(ref_config, keep_trials=True)
    records = result.trials
    assert records.shape == (300,)
    assert result.discarded_trials == 0
    counts = (
        records["n_coop"].astype(int)
        + records["n_noncoop"].astype(int)
        + records["n_cellular"].astype(int)
    )
    assert np.all(counts == 135)
    assert np.all(np.isin(records["mode"], (0, 1)))
    assert np.all(records["throughput"] >= 0.0)
    assert np.all(np.isfinite(records["throughput"]))
    assert np.all(records["coop_band"] <= records["throughput"] + 1e-6)
    assert np.all(records["silent_clusters"] <= 9)
    assert np.all(records["dropped_links"] <= 9)
    degenerate = records["degenerate"] == 1
    assert np.all(records["coop_band"][degenerate] == 0.0)
    assert 0.0 <= result.mode1_frequency <= 1.0
    assert result.throughput_ci95 > 0.0
    assert sum(result.mean_counts) == approx(135.0, abs=1e-9)


def test_campaign_matches_public_snapshot_counts(ref_config):
    records = run_campaign(ref_config, keep_trials=True).trials
    modes, coops = snapshot_counts(ref_config)
    assert modes.tobytes() == records["mode"].tobytes()
    assert coops.tobytes() == records["n_coop"].tobytes()


@pytest.mark.parametrize("beta, paper_gap_se", [(0.0, 2.46), (0.4, 4.79)])
def test_mode1_frequency_matches_the_exact_coop_probability(ref_config, beta, paper_gap_se):
    # Where the cooperation probability is far from 1, the Mode-1
    # frequency of 100,000 reference snapshots (stream D at the reference
    # seed) sits within 3 SE of the exact inclusion-exclusion oracle.  The
    # paper's independence form lies below it; its measured distance from
    # the snapshots, in SE, is pinned.
    model = build_popularity(300, 20, beta)
    config = replace(ref_config, popularity=model, trials=100_000)
    modes, _ = snapshot_counts(config)
    frequency = modes.mean()
    se = math.sqrt(frequency * (1.0 - frequency) / modes.size)
    k, b = config.plan.users_per_cluster, config.plan.n_clusters
    assert abs(frequency - oracles.exact_coop_probability(model, k, b)) <= 3.0 * se
    assert round((frequency - coop_probability(model, k, b)) / se, 2) == paper_gap_se


@pytest.mark.parametrize("base", ["ref_config", "sparse_config"])
def test_mode0_coop_trials_are_their_nocoop_records(request, base):
    # The benchmark's mode0-equality check: every strategy reads the same
    # windows of the campaign streams, so a Mode-0 coop trial, which forms
    # no cooperative set and splits no band, gives the record of the same
    # nocoop trial byte for byte, and tdma shares each trial's drop.
    config = request.getfixturevalue(base)
    records = {
        strategy: run_campaign(
            replace(config, strategy=strategy, eta=config.eta if strategy == "coop" else 0.0),
            keep_trials=True,
        ).trials
        for strategy in ("coop", "nocoop", "tdma")
    }
    coop, nocoop, tdma = records["coop"], records["nocoop"], records["tdma"]
    mode0 = coop["mode"] == 0
    assert coop[mode0].tobytes() == nocoop[mode0].tobytes()
    for name in ("mode", "n_coop", "n_cellular"):
        assert coop[name].tobytes() == nocoop[name].tobytes() == tdma[name].tobytes()
    # the sparse point is almost all Mode 0, the reference point all Mode 1
    assert mode0.mean() > 0.99 if base == "sparse_config" else not mode0.any()


def test_eta_zero_is_bytewise_the_nocoop_baseline(ref_config):
    from dataclasses import replace

    eta0 = replace(ref_config, eta=0.0)
    nocoop = replace(ref_config, strategy="nocoop", eta=0.0)
    a = run_campaign(eta0, keep_trials=True)
    b = run_campaign(nocoop, keep_trials=True)
    assert a.trials.tobytes() == b.trials.tobytes()
    assert a.throughput_mean == b.throughput_mean


def test_campaign_worker_count_does_not_change_results(ref_config):
    from dataclasses import replace

    config = replace(ref_config, trials=100)
    serial = run_campaign(config, n_jobs=1, keep_trials=True)
    parallel = run_campaign(config, n_jobs=2, keep_trials=True)
    assert serial.trials.tobytes() == parallel.trials.tobytes()
    assert serial.throughput_mean == parallel.throughput_mean
    assert serial.mode1_frequency == parallel.mode1_frequency


@pytest.mark.parametrize(
    "n_jobs, cpus, workers",
    [(5000, 64, 10), (5000, 3, 3), (5000, None, 1), (2, 64, 2), (64, 2, 2)],
)
def test_campaign_pool_is_capped_by_ranges_and_cpus(
    ref_config, monkeypatch, n_jobs, cpus, workers
):
    """10 trials split into at most 4 ranges per worker that runs, not per
    ``n_jobs``; no real process is started."""
    sizes = []
    ranges = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            ranges.extend((lo, hi) for _, lo, hi in jobs)
            return map(fn, jobs)

    monkeypatch.setattr(netsim, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(netsim.os, "cpu_count", lambda: cpus)
    config = replace(ref_config, trials=10)
    serial = run_campaign(config, n_jobs=1, keep_trials=True)
    pooled = run_campaign(config, n_jobs=n_jobs, keep_trials=True)
    assert sizes == [workers]
    assert len(ranges) <= 4 * workers
    assert [lo for lo, _ in ranges] == [0] + [hi for _, hi in ranges[:-1]]
    assert ranges[-1][1] == 10
    assert pooled.trials.tobytes() == serial.trials.tobytes()


@pytest.mark.parametrize("n_jobs", [0, -1, 2.5, "2", None, True])
def test_campaign_refuses_a_bad_worker_count(ref_config, n_jobs):
    with pytest.raises(ConfigurationError, match="n_jobs"):
        run_campaign(replace(ref_config, trials=5), n_jobs=n_jobs)


def test_tdma_baseline_runs_and_differs(ref_config):
    from dataclasses import replace

    tdma = run_campaign(replace(ref_config, strategy="tdma", eta=0.0, trials=50))
    nocoop = run_campaign(replace(ref_config, strategy="nocoop", eta=0.0, trials=50))
    assert math.isfinite(tdma.throughput_mean)
    assert tdma.throughput_mean > 0.0
    assert tdma.throughput_mean != nocoop.throughput_mean


def test_sim_config_validation(ref_plan, ref_radio, ref_model):
    good = dict(
        plan=ref_plan, radio=ref_radio, popularity=ref_model,
        strategy="coop", trials=10, seed=1, eta=0.5,
    )
    SimConfig(**good)
    with pytest.raises(ConfigurationError):
        SimConfig(**{**good, "plan": make_plan(75.0, 8, 2)})  # 8 is not square
    with pytest.raises(ConfigurationError):
        SimConfig(**{**good, "strategy": "mimo"})
    for trials in (0, 2.5, True):
        with pytest.raises(ConfigurationError):
            SimConfig(**{**good, "trials": trials})
    with pytest.raises(ConfigurationError):
        SimConfig(**{**good, "seed": -1})
    with pytest.raises(ConfigurationError):
        SimConfig(**{**good, "eta": 1.5})
    with pytest.raises(ConfigurationError):
        SimConfig(**{**good, "plan": make_plan(75.0, 9, 16)})  # K > group count
    for floor in (-1.0, math.nan, math.inf):
        with pytest.raises(ConfigurationError):
            SimConfig(**{**good, "min_pairing_distance_m": floor})


# Each entry point that takes a cluster size K, as a call at K on a catalog of
# three groups (60 files, 20 per cache), with the name its refusal gives K.
_THREE_GROUPS = build_popularity(60, 20, 1.0)
_CLUSTER_SIZE_TAKERS = {
    "ExperimentSpec": ("users_per_cluster", lambda k: ExperimentSpec(
        command="simulate", n_files=60, cache_size=20, users_per_cluster=k)),
    "SimConfig": ("users_per_cluster", lambda k: SimConfig(
        plan=make_plan(75.0, 9, k), radio=RadioParams(20.0, -95.0, 37.6, 3.68, 20e6),
        popularity=_THREE_GROUPS,
        strategy="coop", trials=10, seed=1)),
    "hit_probability": ("users_per_cluster", lambda k: hit_probability(_THREE_GROUPS, k)),
    "coop_probability": ("users_per_cluster", lambda k: coop_probability(_THREE_GROUPS, k, 4)),
    "cumulative_cached_prob": (
        "n_cached_groups", lambda k: cumulative_cached_prob(_THREE_GROUPS, k)),
    "expected_coop_users_closed": (
        "users_per_cluster", lambda k: expected_coop_users_closed(_THREE_GROUPS, k, 4)),
    "expected_coop_users_exact": (
        "users_per_cluster", lambda k: expected_coop_users_exact(_THREE_GROUPS, k, 4)),
}


@pytest.mark.parametrize("taker", sorted(_CLUSTER_SIZE_TAKERS))
def test_every_cluster_size_taker_refuses_more_users_than_groups_alike(taker):
    # user k of a cluster caches group k: K = G is the largest cluster, and
    # K = G + 1 is refused with the one message of errors.check_cached_groups
    name, call = _CLUSTER_SIZE_TAKERS[taker]
    call(3)
    with pytest.raises(ConfigurationError) as caught:
        call(4)
    assert str(caught.value) == "%s must be at most the 3 cacheable file groups, got 4" % name


@pytest.mark.parametrize("strategy", ["coop", "nocoop", "tdma"])
@pytest.mark.parametrize(
    "field, value",
    [("eta", v) for v in (math.nan, math.inf, -0.1, 1.5, True, "0.5", None)]
    + [("min_pairing_distance_m", v) for v in ("1.0", None, False, np.bool_(True))],
)
def test_sim_config_refuses_a_bad_band_or_floor(ref_config, strategy, field, value):
    with pytest.raises(ConfigurationError, match=field):
        replace(ref_config, **{"strategy": strategy, "eta": 0.0, field: value})


def test_sim_config_accepts_numpy_reals(ref_config):
    config = replace(ref_config, eta=np.float32(0.5), min_pairing_distance_m=np.int64(2))
    assert config.eta == 0.5 and config.min_pairing_distance_m == 2


def test_sim_config_counts_at_most_int16_max_users(ref_radio):
    # the records count users in int16: 32,767 users construct, one more is refused
    popularity = build_popularity(32_768, 1, 1.0)
    limit = np.iinfo(np.int16).max
    fields = dict(radio=ref_radio, popularity=popularity, strategy="nocoop", trials=1, seed=0)
    config = SimConfig(plan=make_plan(25.0, 1, limit), **fields)
    assert config.plan.n_users == limit == 32_767
    with pytest.raises(ConfigurationError, match="n_clusters x users_per_cluster"):
        SimConfig(plan=make_plan(25.0, 1, limit + 1), **fields)


def test_mode1_coop_links_all_or_nothing(ref_config):
    # whenever the cooperative band carried traffic, all B links were formed
    result = run_campaign(ref_config, keep_trials=True)
    carried = result.trials["coop_band"] > 0.0
    assert carried.any()
    assert np.all(result.trials["mode"][carried] == 1)
    # degenerate mode-1 trials are the only mode-1 trials without coop traffic
    mode1 = result.trials["mode"] == 1
    silent_mode1 = mode1 & ~carried
    assert np.all(result.trials["degenerate"][silent_mode1] == 1)
