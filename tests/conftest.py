import numpy as np
import pytest

from cluttertrack.deepda import NormStats
from cluttertrack.domain import ScenarioConfig, Track, TrackSet, five_crossing_targets


@pytest.fixture
def reference_config() -> ScenarioConfig:
    return five_crossing_targets(p_d=0.9, e_lambda=20.0, seed=0)


@pytest.fixture
def clean_config() -> ScenarioConfig:
    """Well-separated parallel targets, no clutter, no misses, no noise."""
    return ScenarioConfig(
        num_targets=5,
        initial_states=tuple((5.0, 1.0, 9.0 + 3.0 * j, 0.0) for j in range(5)),
        sigma_x=0.0,
        sigma_y=0.0,
        p_d=1.0,
        e_lambda=0.0,
        seed=0,
    )


def make_track(track_id=0, state=(0.0, 0.0, 0.0, 0.0), cov=None):
    if cov is None:
        cov = np.eye(4)
    return Track(track_id, np.asarray(state, dtype=float), np.asarray(cov, dtype=float))


def make_set(tracks):
    """The TrackSet whose rows are ``tracks``, in order (row j is track j)."""
    return TrackSet(
        np.array([t.state for t in tracks]).reshape(-1, 4),
        np.array([t.covariance for t in tracks]).reshape(-1, 4, 4),
    )


def identity_norm(features: int) -> NormStats:
    """Stats that leave features unchanged ((x - 0) / (1 - 0))."""
    return NormStats(np.zeros(features), np.ones(features))
