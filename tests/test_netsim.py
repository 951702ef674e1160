"""Snapshot simulator: drops, scheduling, link rates, campaigns."""

import math
from dataclasses import replace

import numpy as np
import pytest
from pytest import approx

from coopd2d import netsim
from coopd2d.catalog import build_popularity
from coopd2d.clusters import make_plan
from coopd2d.errors import ConfigurationError, SingularChannelError
from coopd2d.netsim import (
    ROLE_CELLULAR,
    ROLE_COOP,
    ROLE_NONCOOP,
    SimConfig,
    Snapshot,
    drop_snapshot,
    noncoop_rates,
    run_campaign,
    schedule,
    zf_rates,
)

import oracles


def make_snapshot(request_of, k, b, positions=None):
    """Assemble a Snapshot from explicit requests (counts, roles and mode recomputed)."""
    req = np.asarray(request_of)
    per_cluster = req.reshape(b, k)
    counts = (per_cluster[:, :, None] == np.arange(k)[None, None, :]).sum(axis=1)
    hit = np.flatnonzero((counts > 0).all(axis=0))
    roles = np.full(b * k, ROLE_CELLULAR, dtype=np.int8)
    roles[req < k] = ROLE_NONCOOP
    if hit.size:
        roles[np.isin(req, hit)] = ROLE_COOP
    if positions is None:
        positions = np.zeros((b * k, 2))
    return Snapshot(
        positions=np.asarray(positions, dtype=float),
        cluster_of=np.repeat(np.arange(b), k),
        cache_group_of=np.tile(np.arange(k), b),
        request_of=req,
        request_counts=counts,
        roles=roles,
        mode=1 if hit.size else 0,
        hit_groups=frozenset(int(g) for g in hit),
    )


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


@pytest.mark.parametrize("strategy", ["coop", "nocoop", "tdma"])
@pytest.mark.parametrize(
    "base",
    ["ref_config", "sparse_config", "small_config", "eta0_config", "single_cluster_config"],
)
def test_campaign_records_match_the_per_trial_reference(request, base, strategy):
    """Every record equals the one-trial-at-a-time oracle, byte for byte."""
    config = request.getfixturevalue(base)
    assert config.trials % netsim._CHUNK  # a last, partial block
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
    for n_jobs in (1, 2):
        records = run_campaign(config, n_jobs=n_jobs, keep_trials=True).trials
        assert records.tobytes() == expected.tobytes()


@pytest.mark.parametrize("strategy", ["coop", "nocoop", "tdma"])
def test_records_do_not_depend_on_the_block_size(ref_config, monkeypatch, strategy):
    config = replace(ref_config, trials=40, strategy=strategy)
    expected = run_campaign(config, keep_trials=True).trials.tobytes()
    monkeypatch.setattr(netsim, "_CHUNK", 7)
    assert run_campaign(config, keep_trials=True).trials.tobytes() == expected


def test_snapshot_shapes_and_cell_confinement(ref_config):
    snap = drop_snapshot(ref_config, 0)
    m = ref_config.plan.n_users
    assert snap.positions.shape == (m, 2)
    assert snap.request_of.shape == (m,)
    d = ref_config.plan.cluster_side_m
    grid = math.isqrt(ref_config.plan.n_clusters)
    col = np.floor(snap.positions[:, 0] / d).astype(int)
    row = np.floor(snap.positions[:, 1] / d).astype(int)
    assert np.array_equal(row * grid + col, snap.cluster_of)


def test_snapshot_roles_partition(small_config):
    k = small_config.plan.users_per_cluster
    b = small_config.plan.n_clusters
    saw_cellular = False
    for t in range(50):
        snap = drop_snapshot(small_config, t)
        per_cluster = snap.request_of.reshape(b, k)
        hit = {
            g
            for g in range(k)
            if all((per_cluster[c] == g).any() for c in range(b))
        }
        assert snap.hit_groups == frozenset(hit)
        assert snap.mode == (1 if hit else 0)
        for user, req in enumerate(snap.request_of):
            if req >= k:
                assert snap.roles[user] == ROLE_CELLULAR
            elif req in hit:
                assert snap.roles[user] == ROLE_COOP
            else:
                assert snap.roles[user] == ROLE_NONCOOP
        saw_cellular = saw_cellular or (snap.request_of >= k).any()
    assert saw_cellular  # the small catalog slice leaves uncached demand


def test_snapshot_determinism(ref_config):
    a = drop_snapshot(ref_config, 7)
    b = drop_snapshot(ref_config, 7)
    c = drop_snapshot(ref_config, 8)
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.request_of, b.request_of)
    assert not np.array_equal(a.request_of, c.request_of)


def test_schedule_deterministic_single_cluster():
    # requests (1, 1, 2): group 1 is hit with a non-caching requester, group 2
    # only by its own cacher
    snap = make_snapshot([1, 1, 2], k=3, b=1)
    rng = np.random.default_rng(0)
    coop, noncoop = schedule(snap, rng)
    assert coop == [(1, 0)]  # cacher of group 1 serves user 0
    assert noncoop == []  # the only other cached request is the hit group
    coop_off, noncoop_off = schedule(snap, np.random.default_rng(0), cooperation=False)
    assert coop_off == []
    assert noncoop_off == [(1, 0)]  # same pair, now on the shared band


def test_schedule_degenerate_hit_without_receiver():
    # group 0 is hit everywhere but cluster 1's only requester caches it
    snap = make_snapshot([0, 0, 0, 1], k=2, b=2)
    assert snap.mode == 1
    coop, noncoop = schedule(snap, np.random.default_rng(0))
    assert coop == []
    assert noncoop == []


def test_schedule_mode0_forms_no_coop_links():
    snap = make_snapshot([2, 2, 2, 2], k=2, b=2)
    assert snap.mode == 0
    coop, noncoop = schedule(snap, np.random.default_rng(0))
    assert coop == []
    assert noncoop == []  # nobody requested a cached group


def test_schedule_reserves_hit_requesters_for_the_coop_band():
    # every cached request belongs to a hit group: the non-coop pool is empty
    # under cooperation and non-empty without it
    snap = make_snapshot([1, 0], k=2, b=1)
    assert snap.hit_groups == frozenset((0, 1))
    coop, noncoop = schedule(snap, np.random.default_rng(1))
    assert len(coop) == 1
    assert coop[0] in ((0, 1), (1, 0))
    assert noncoop == []
    _, noncoop_off = schedule(snap, np.random.default_rng(1), cooperation=False)
    assert noncoop_off in ([(0, 1)], [(1, 0)])


def test_schedule_link_invariants(ref_config):
    k = ref_config.plan.users_per_cluster
    b = ref_config.plan.n_clusters
    for t in range(100):
        snap = drop_snapshot(ref_config, t)
        coop, noncoop = schedule(snap, np.random.default_rng([5, t]))
        assert len(coop) in (0, b)
        assert len(noncoop) <= b
        clusters_seen = set()
        for dt, dr in coop + noncoop:
            assert dt != dr
            assert snap.cluster_of[dt] == snap.cluster_of[dr]
            assert snap.cache_group_of[dt] == snap.request_of[dr]
        for dt, _ in noncoop:
            c = int(snap.cluster_of[dt])
            assert c not in clusters_seen  # at most one per cluster
            clusters_seen.add(c)
        if coop:
            groups = {int(snap.cache_group_of[dt]) for dt, _ in coop}
            assert len(groups) == 1  # one group transmitted network-wide
            assert groups <= snap.hit_groups


def test_zf_empty_link_set(ref_radio):
    out = zf_rates([], np.zeros((0, 2)), ref_radio, np.random.default_rng(0))
    assert out.shape == (0,)


def test_zf_single_link_matches_direct_formula(ref_radio):
    positions = np.array([[0.0, 0.0], [10.0, 0.0]])
    rates = zf_rates([(0, 1)], positions, ref_radio, np.random.default_rng(42))
    replay = np.random.default_rng(42)
    x = replay.standard_normal((1, 1))[0, 0]
    y = replay.standard_normal((1, 1))[0, 0]
    h2 = ref_radio.path_gain(10.0) / 2.0 * (x * x + y * y)
    expected = math.log2(1.0 + ref_radio.tx_power_w * h2 / ref_radio.noise_w)
    assert rates[0] == approx(expected, rel=1e-12)


def test_zf_identity_channel_decouples_streams(ref_radio):
    rates = zf_rates(
        [(0, 1), (2, 3), (4, 5)],
        np.zeros((6, 2)),
        ref_radio,
        np.random.default_rng(0),
        channel=np.eye(3),
    )
    expected = math.log2(1.0 + ref_radio.tx_power_w / ref_radio.noise_w)
    assert expected == approx(38.20217309120923, rel=1e-13)
    np.testing.assert_allclose(rates, expected, rtol=1e-13)


def test_zf_drops_worst_link_of_an_ill_conditioned_channel(ref_radio):
    channel = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-12]], dtype=complex)
    positions = np.zeros((4, 2))
    rates = zf_rates([(0, 1), (2, 3)], positions, ref_radio, np.random.default_rng(0), channel=channel)
    assert np.count_nonzero(rates == 0.0) == 1
    assert rates.max() > 0.0


def test_zf_singular_channel_raises(ref_radio):
    channel = np.ones((2, 2), dtype=complex)
    with pytest.raises(SingularChannelError):
        zf_rates(
            [(0, 1), (2, 3)],
            np.zeros((4, 2)),
            ref_radio,
            np.random.default_rng(0),
            channel=channel,
        )


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
    positions = np.array([[0.0, 0.0], [10.0, 0.0]])
    rates = noncoop_rates(
        [(0, 1)],
        positions,
        ref_radio,
        np.random.default_rng(0),
        fading_power=np.ones((1, 1)),
    )
    expected = math.log2(
        1.0 + ref_radio.tx_power_w * ref_radio.path_gain(10.0) / ref_radio.noise_w
    )
    assert rates[0] == approx(expected, rel=1e-12)


def test_noncoop_single_link_fading_replay(ref_radio):
    positions = np.array([[0.0, 0.0], [10.0, 0.0]])
    rates = noncoop_rates([(0, 1)], positions, ref_radio, np.random.default_rng(5))
    replay = np.random.default_rng(5)
    x = replay.standard_normal((1, 1))[0, 0]
    y = replay.standard_normal((1, 1))[0, 0]
    power = ref_radio.path_gain(10.0) * (x * x + y * y) / 2.0
    expected = math.log2(1.0 + ref_radio.tx_power_w * power / ref_radio.noise_w)
    assert rates[0] == approx(expected, rel=1e-12)


def test_noncoop_two_links_hand_computed(ref_radio):
    # parallel links 5 m apart; cross distances sqrt(125)
    positions = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 5.0], [10.0, 5.0]])
    rates = noncoop_rates(
        [(0, 1), (2, 3)],
        positions,
        ref_radio,
        np.random.default_rng(0),
        fading_power=np.ones((2, 2)),
    )
    p = ref_radio.tx_power_w
    signal = p * ref_radio.path_gain(10.0)
    cross = p * ref_radio.path_gain(math.sqrt(125.0))
    expected = math.log2(1.0 + signal / (cross + ref_radio.noise_w))
    np.testing.assert_allclose(rates, expected, rtol=1e-12)


def test_noncoop_distance_floor(ref_radio):
    positions = np.array([[0.0, 0.0], [0.5, 0.0]])
    floored = noncoop_rates(
        [(0, 1)],
        positions,
        ref_radio,
        np.random.default_rng(0),
        min_distance_m=1.0,
        fading_power=np.ones((1, 1)),
    )
    expected = math.log2(
        1.0 + ref_radio.tx_power_w * ref_radio.path_gain(1.0) / ref_radio.noise_w
    )
    assert floored[0] == approx(expected, rel=1e-12)


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
    result = run_campaign(ref_config, keep_trials=True)
    for t in (0, 17, 123):
        snap = drop_snapshot(ref_config, t)
        rec = result.trials[t]
        assert rec["mode"] == snap.mode
        assert rec["n_coop"] == np.count_nonzero(snap.roles == ROLE_COOP)
        assert rec["n_noncoop"] == np.count_nonzero(snap.roles == ROLE_NONCOOP)
        assert rec["n_cellular"] == np.count_nonzero(snap.roles == ROLE_CELLULAR)


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


def test_nocoop_trial_reconstruction_from_documented_draw_order(ref_config):
    """The per-trial stream contract: positions, requests, schedule, fading."""
    from dataclasses import replace

    config = replace(ref_config, strategy="nocoop", eta=0.0, trials=1)
    result = run_campaign(config, keep_trials=True)

    plan, radio = config.plan, config.radio
    m, d = plan.n_users, plan.cluster_side_m
    rng = np.random.default_rng([config.seed, 0])
    grid = math.isqrt(plan.n_clusters)
    origins = (
        np.column_stack((np.arange(plan.n_clusters) % grid, np.arange(plan.n_clusters) // grid)) * d
    )
    cluster_of = np.repeat(np.arange(plan.n_clusters), plan.users_per_cluster)
    positions = rng.random((m, 2)) * d + origins[cluster_of]
    cdf = np.cumsum(config.popularity.group_probs)
    k0 = config.popularity.group_count
    requests = np.minimum(np.searchsorted(cdf, rng.random(m), side="right"), k0 - 1)

    snap = make_snapshot(requests, plan.users_per_cluster, plan.n_clusters, positions)
    _, links = schedule(snap, rng, cooperation=False)
    rates = noncoop_rates(links, positions, radio, rng, config.min_pairing_distance_m)
    expected = radio.bandwidth_hz * float(rates.sum())
    assert result.trials[0]["throughput"] == expected


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
    with pytest.raises(ConfigurationError):
        SimConfig(**{**good, "trials": 0})
    with pytest.raises(ConfigurationError):
        SimConfig(**{**good, "eta": 1.5})
    with pytest.raises(ConfigurationError):
        SimConfig(**{**good, "plan": make_plan(75.0, 9, 16)})  # K > group count
    with pytest.raises(ConfigurationError):
        SimConfig(**{**good, "min_pairing_distance_m": -1.0})


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
