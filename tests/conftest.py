import numpy as np
import pytest

import risdet.detectors as det
from risdet.detectors import CGlrtConfig
from risdet.signal_model import SteeringSet


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def make_steering(n: int, theta_r_deg: float = 0.5,
                  theta_s_deg: float = -0.4) -> SteeringSet:
    return SteeringSet.from_angles(theta_r_deg, theta_s_deg, n)


@pytest.fixture
def steering16():
    return make_steering(16)


@pytest.fixture
def steering4():
    return make_steering(4)


@det._quiet
def every_entry(z_p, r, steering, kinds=det.DET_RATIO_KINDS,
                cfg=CGlrtConfig()):
    """The det-ratio kinds at every (pair, trial) entry of a stack, in one
    stack through detectors._stacked_det_ratio with every ascent run:
    (the Gram workspace, kind -> (pairs, T) statistics, the (T, pairs)
    c-glrt iterations).  The reference that every det-ratio cut and an
    uncut batch_evaluate are checked against."""
    ws = det._GramWorkspace(z_p, r, steering)
    n_pairs = len(ws.pairs)
    vals = {kind: np.full((n_pairs, ws.t), -np.inf) for kind in kinds}
    ascents = np.zeros((ws.t, n_pairs), dtype=np.int64)
    p, t = np.divmod(np.arange(n_pairs * ws.t), ws.t)
    det._stacked_det_ratio(ws, p, t, list(kinds), cfg, vals, ascents,
                           np.full(p.size, np.inf))
    return ws, vals, ascents


def every_entry_results(z_p, r, steering, kinds=det.DET_RATIO_KINDS,
                        cfg=CGlrtConfig()):
    """kind -> BatchResult of every_entry's tables, each trial's first
    maximum over the pairs as batch_evaluate reduces them."""
    ws, vals, ascents = every_entry(z_p, r, steering, kinds, cfg)
    return {kind: det._first_max(kind, vals[kind], ascents, ws.pairs)
            for kind in kinds}
