import pytest

from nonmarginal import PriorConfig, ScenarioConfig, experiments


@pytest.fixture
def tiny_cfg():
    """A scenario small enough for second-scale end-to-end runs."""
    return ScenarioConfig(
        n_grid=(40, 80, 120),
        num_covariates=3,
        active_indices=(1,),
        active_magnitude=2.0,
        replicates=3,
        num_draws=80,
        burn_in=40,
        master_seed=123,
        prior=PriorConfig(beta_sd=5.0),
    )


@pytest.fixture
def replicate_1_fails(monkeypatch):
    """Replicate 1 raises at every sample size; the others build as usual."""
    real = experiments.simulate_replicate

    def flaky(cfg, design, replicate_id):
        if replicate_id == 1:
            raise RuntimeError("synthetic failure")
        return real(cfg, design, replicate_id)

    monkeypatch.setattr(experiments, "simulate_replicate", flaky)
