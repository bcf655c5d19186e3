"""Run-to-run determinism: same seed, byte-identical canonical traces."""

import numpy as np
import pytest

from repro.hw.noise import NoiseModel
from repro.hw.presets import platform_c2050
from repro.runtime import Runtime
from repro.runtime.trace_export import canonical_chrome_json
from repro.session import Session

from tests.conftest import make_axpy_codelet


def _drive(session, n_tasks=10, n=300_000):
    cl = make_axpy_codelet()
    hy = session.register(np.zeros(n, dtype=np.float32), "y")
    hx = session.register(np.ones(n, dtype=np.float32), "x")
    for _ in range(n_tasks):
        session.submit(
            cl, [(hy, "rw"), (hx, "r")], ctx={"n": n}, scalar_args=(1.0,)
        )
    session.wait_for_all()


def _canonical_run(seed, noise_sigma=0.03, scheduler="dmda"):
    with Session(
        "c2050", scheduler=scheduler, seed=seed, noise_sigma=noise_sigma,
        check=True,
    ) as s:
        _drive(s)
        return canonical_chrome_json(s.trace, s.machine)


@pytest.mark.parametrize("scheduler", ["eager", "dmda"])
def test_same_seed_sessions_are_byte_identical(scheduler):
    a = _canonical_run(seed=11, scheduler=scheduler)
    b = _canonical_run(seed=11, scheduler=scheduler)
    assert a == b


def test_different_seeds_perturb_noisy_timings():
    # sanity check that the identity above is not vacuous: with noise on,
    # different seeds must actually change the canonical trace
    assert _canonical_run(seed=1) != _canonical_run(seed=2)


def test_sigma_zero_makes_seed_irrelevant():
    # regression: with noise disabled the seed feeds nothing else in a
    # deterministic-policy run, so traces match across seeds
    a = _canonical_run(seed=1, noise_sigma=0.0)
    b = _canonical_run(seed=2, noise_sigma=0.0)
    assert a == b


def test_null_noise_never_perturbs_durations():
    model = NoiseModel(sigma=0.0, seed=3)
    for d in (0.0, 1e-9, 0.5, 7.25):
        assert model.perturb(d) == d


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(sigma=-0.1)
    with pytest.raises(ValueError):
        NoiseModel(sigma=0.1).perturb(-1.0)


def test_zero_sigma_runtime_engages_null_noise():
    # noise_sigma=0 leaves every duration unperturbed: the run is
    # byte-stable and actually differs from a noisy run with the same seed
    def run(noise_sigma):
        rt = Runtime(
            platform_c2050(), scheduler="dmda", seed=4,
            noise_sigma=noise_sigma, check=True,
        )
        cl = make_axpy_codelet()
        n = 250_000
        hy = rt.register(np.zeros(n, dtype=np.float32), "y")
        hx = rt.register(np.ones(n, dtype=np.float32), "x")
        for _ in range(6):
            rt.submit(
                cl, [(hy, "rw"), (hx, "r")], ctx={"n": n}, scalar_args=(1.0,)
            )
        rt.wait_for_all()
        doc = canonical_chrome_json(rt.trace, rt.machine)
        rt.shutdown()
        return doc

    quiet = run(0.0)
    assert quiet == run(0.0)
    assert quiet != run(0.03)
