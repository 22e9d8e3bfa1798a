"""Counter-based streams: key derivation, construction, golden draws."""

import numpy as np
import pytest

from clonekit import stream, stream_key


def _paths():
    """50 mixed int/str paths of length 0 to 4, drawn from a fixed stream."""
    rng = np.random.default_rng(20261018)
    words = ("clone-loss", "bernoulli", "poisson", "h3", "", "perfbench-clone")
    paths = []
    for i in range(50):
        path = []
        for _ in range(i % 5):
            if rng.random() < 0.5:
                path.append(int(rng.integers(-(2**40), 2**40)))
            else:
                path.append(str(rng.choice(words)))
        paths.append((int(rng.integers(0, 2**32)), tuple(path)))
    return paths


def _reference(seed, *path):
    return np.random.Generator(np.random.Philox(key=stream_key(seed, *path)))


def _states_equal(a, b):
    a, b = a.bit_generator.state, b.bit_generator.state
    assert a.keys() == b.keys()
    for key in a:
        if isinstance(a[key], dict):
            assert a[key].keys() == b[key].keys()
            for sub in a[key]:
                np.testing.assert_array_equal(a[key][sub], b[key][sub])
        else:
            np.testing.assert_array_equal(a[key], b[key])


class TestMatchesPhiloxKey:
    @pytest.mark.parametrize("seed,path", _paths())
    def test_state_and_draws(self, seed, path):
        new, ref = stream(seed, *path), _reference(seed, *path)
        _states_equal(new, ref)
        np.testing.assert_array_equal(new.random(1_000), ref.random(1_000))
        np.testing.assert_array_equal(new.standard_normal(1_000),
                                      ref.standard_normal(1_000))
        np.testing.assert_array_equal(new.integers(0, 2**63, 1_000),
                                      ref.integers(0, 2**63, 1_000))
        np.testing.assert_array_equal(new.binomial(400, 0.3, 1_000),
                                      ref.binomial(400, 0.3, 1_000))
        _states_equal(new, ref)


class TestGolden:
    def test_integers(self):
        # recorded with Generator(Philox(key=stream_key(0, "golden", 1)))
        assert stream(0, "golden", 1).integers(0, 2**63, 3).tolist() == [
            7204202253637053097, 7676002924800877273, 6698246907646157824,
        ]

    def test_uniforms(self):
        assert stream(20261018, "golden", 2, "x").random(3).tolist() == [
            0.14893921128392384, 0.08810957941309638, 0.9840812501800665,
        ]

    def test_key(self):
        assert stream_key(0, "golden", 1).tolist() == [
            8430338808024795548, 9704873550878319233,
        ]


class TestStreams:
    def test_float_path_part_rejected(self):
        with pytest.raises(TypeError):
            stream(1, "a", 0.5)
        with pytest.raises(TypeError):
            stream_key(1, 2.0)

    def test_distinct_paths_differ(self):
        assert stream(1, "a", 0).random() != stream(1, "a", 1).random()
        assert stream(1, "a").random() != stream(2, "a").random()

    def test_live_streams_do_not_interfere(self):
        solo_a = stream(3, "a").random(200)
        solo_b = stream(3, "b").random(200)
        a, b = stream(3, "a"), stream(3, "b")
        mixed_a, mixed_b = [], []
        for _ in range(100):
            mixed_a.append(a.random(2))
            mixed_b.append(b.random(2))
        np.testing.assert_array_equal(np.concatenate(mixed_a), solo_a)
        np.testing.assert_array_equal(np.concatenate(mixed_b), solo_b)

    def test_fresh_generator_per_call(self):
        first = stream(4, "same")
        first.random(10)
        again = stream(4, "same")
        assert again is not first
        assert again.bit_generator is not first.bit_generator
        assert again.random() == _reference(4, "same").random()
