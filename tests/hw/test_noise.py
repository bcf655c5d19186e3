"""Timing-noise model."""

import numpy as np
import pytest

from repro.hw.noise import NoiseModel


def test_deterministic_per_seed():
    a = NoiseModel(seed=7)
    b = NoiseModel(seed=7)
    assert [a.perturb(1.0) for _ in range(5)] == [b.perturb(1.0) for _ in range(5)]


def test_different_seeds_differ():
    assert NoiseModel(seed=1).perturb(1.0) != NoiseModel(seed=2).perturb(1.0)


def test_unbiased_mean():
    noise = NoiseModel(sigma=0.05, seed=0)
    samples = [noise.perturb(1.0) for _ in range(20_000)]
    assert np.mean(samples) == pytest.approx(1.0, rel=0.01)


def test_spread_scales_with_sigma():
    tight = np.std([NoiseModel(sigma=0.01, seed=0).perturb(1.0) for _ in range(1)])
    loose_model = NoiseModel(sigma=0.2, seed=0)
    loose = np.std([loose_model.perturb(1.0) for _ in range(2000)])
    tight_model = NoiseModel(sigma=0.01, seed=0)
    tight = np.std([tight_model.perturb(1.0) for _ in range(2000)])
    assert loose > 5 * tight


def test_zero_duration_unperturbed():
    assert NoiseModel(seed=0).perturb(0.0) == 0.0


def test_negative_duration_rejected():
    with pytest.raises(ValueError):
        NoiseModel(seed=0).perturb(-1.0)
    with pytest.raises(ValueError):
        NoiseModel(sigma=0.0).perturb(-1.0)


def test_negative_sigma_rejected():
    with pytest.raises(ValueError):
        NoiseModel(sigma=-0.1)


def test_null_noise_is_identity():
    null = NoiseModel(sigma=0.0)
    assert null.perturb(3.25) == 3.25


def test_sigma_zero_consumes_no_randomness():
    model = NoiseModel(sigma=0.0, seed=9)
    state_before = model._rng.bit_generator.state
    model.perturb(2.0)
    assert model._rng.bit_generator.state == state_before


def test_perturbed_stays_positive():
    noise = NoiseModel(sigma=0.3, seed=3)
    assert all(noise.perturb(1e-6) > 0 for _ in range(1000))
