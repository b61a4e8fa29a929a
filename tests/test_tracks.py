"""The stacked storage tracks of `simulate`: one channel, Born-rule and
sampling pass for every track, with counts carried as (B, K) arrays."""
import dataclasses

import numpy as np
import pytest

from holomem import channel, cli, measure, tomo
from holomem.measure import child_seed
from test_measure import random_state

# The decay-scan config: 41 storage times from 0 to 8 us, no Monte Carlo.
DECAY_TIMES = [float(f"{i * 0.2:.1f}e-6") for i in range(41)]


def per_track_counts(sc: cli.Scenario) -> np.ndarray:
    """Reference: one store_retrieve and one sample_counts call per track."""
    rho_in = channel.input_state(sc.source)
    settings = list(tomo.make_settings(sc.tomo_scheme).settings)
    tracks = [("input", rho_in, sc.input_coinc_prob)]
    for t in sc.storage_times_s:
        rho_out, coinc_prob, _ = channel.store_retrieve(rho_in, t, sc.channel)
        tracks.append((f"t={t!r}", rho_out, coinc_prob))
    return np.array([measure.sample_counts(
        rho, settings, sc.n_trials, min(p, 1.0), child_seed(sc.master_seed, f"counts/{label}", 0))
        for label, rho, p in tracks], dtype=np.int64)


class _Captured(Exception):
    pass


@pytest.mark.parametrize("seed", range(7000, 7006))
@pytest.mark.parametrize("overrides", [{}, {"n_mc_sets": 0, "storage_times_s": DECAY_TIMES}],
                         ids=["bundled", "decay-scan"])
def test_stacked_counts_equal_per_track_sampling(monkeypatch, overrides, seed):
    sc = cli.load_scenario({**cli.default_config(), **overrides, "master_seed": seed})
    seen = []

    def capture(n, dur, *rest):
        seen.append((n, dur))
        raise _Captured

    monkeypatch.setattr(tomo, "reconstruct_with_mc", capture)
    with pytest.raises(_Captured):
        cli.run_simulate(sc)
    (n, dur), = seen
    ref = per_track_counts(sc)
    assert n.dtype == np.int64 and n.shape == ref.shape == (len(sc.storage_times_s) + 1, 36)
    assert n.tobytes() == ref.tobytes()
    np.testing.assert_array_equal(dur, np.ones(n.shape))


@pytest.mark.parametrize("size", [1, 2, 9])
def test_stacked_measures_match_per_state_calls(rng, size):
    states = np.stack([random_state(rng, int(rng.integers(1, 5))) for _ in range(size)])
    settings = list(tomo.make_settings(36).settings)
    probs = measure.born_probabilities(states, tomo.make_settings(36).projectors)
    chsh, mean_vis = measure.chsh_s(states), measure.visibilities(states).mean(axis=-1)
    assert probs.shape == (size, 36) and chsh.shape == mean_vis.shape == (size,)
    for b, rho in enumerate(states):
        single = [measure.coincidence_prob(rho, s) for s in settings]
        assert np.abs(probs[b] - single).max() <= 1e-12
        assert abs(chsh[b] - measure.chsh_s(rho)) <= 1e-12
        assert abs(mean_vis[b] - measure.visibilities(rho).mean(axis=-1)) <= 1e-12
        for basis in ("HV", "PM", "RL"):
            stacked = measure.visibility(states, basis)[b]
            assert abs(stacked - measure.visibility(rho, basis)) <= 1e-12


def test_make_settings_is_built_once_and_read_only():
    ts = tomo.make_settings(36)
    assert tomo.make_settings(36) is ts and tomo.make_settings("36") == ts
    assert tomo.make_settings(16) is not ts
    for name in ("projectors", "inversion", "inversion_offset"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(ts, name)[0] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        ts.scheme = "16"
