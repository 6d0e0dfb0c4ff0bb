"""Shared test fixtures/constants."""

import tracemalloc

import numpy as np

from irlsvm import Dataset, Loss, ModelParams, Penalty, RiskSpec
from irlsvm.engine import _update

ALL_COMBOS = [(loss, pen) for loss in Loss for pen in Penalty]
ITERATIVE_COMBOS = [c for c in ALL_COMBOS if c != (Loss.LEAST_SQUARES, Penalty.L2)]
COMBO_IDS = [f"{loss.value}+{pen.value}" for loss, pen in ALL_COMBOS]
ITERATIVE_IDS = [f"{loss.value}+{pen.value}" for loss, pen in ITERATIVE_COMBOS]


def two_sample_dataset() -> Dataset:
    """The 2-sample fixture: t = (1), (-1) with labels +1, -1."""
    return Dataset(features=np.array([[1.0], [-1.0]]), labels=np.array([1.0, -1.0]))


def irls_step(spec: RiskSpec, theta: ModelParams, dataset: Dataset) -> ModelParams:
    """One reweighted update: the minimizer of the surrogate anchored at theta,
    by fit's update step from the system a pass builds there.

    For the least-squares loss with 2-norm penalty the surrogate is the risk
    itself, so the step returns the closed-form solution directly.
    """
    return ModelParams.from_vector(_update(spec, dataset, theta.as_vector(), None, False, None)[1].x)


def closed_form_ls_l2(dataset: Dataset, lam: float) -> ModelParams:
    """Exact minimizer of the least-squares risk with 2-norm penalty: the one
    update of that risk from 0, as fit's warm start and closed form take it."""
    return irls_step(RiskSpec(Loss.LEAST_SQUARES, Penalty.L2, lam=lam), ModelParams.zeros(dataset.q), dataset)


def make_dataset(seed: int, n: int = 40, q: int = 3) -> Dataset:
    """Small random dataset with both classes present."""
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(n, q))
    labels = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    labels[0], labels[-1] = -1.0, 1.0
    return Dataset(features=features, labels=labels)


def traced_peak(call):
    """The peak of the memory numpy and Python allocate while call runs, in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
