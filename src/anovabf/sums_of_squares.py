"""ANOVA sums-of-squares decompositions for balanced layouts.

These decompositions are the only data summaries the Bayes factors
consume. Totals are stored as the sum of their components so the
partition identity holds exactly in floating point; an independent
grand-mean computation of the total is a test concern, not an output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datasets import OneWayDataset, TwoWayDataset


@dataclass(frozen=True)
class OneWaySS:
    """Total / within-group / between-group sums of squares.

    Floats for one dataset; arrays over the leading axes of a batch.
    """

    w_t: float
    w_e: float
    w_h: float


@dataclass(frozen=True)
class TwoWaySS:
    """Total / factor-A / factor-B / interaction / within sums of squares."""

    w_t: float
    w_a: float
    w_b: float
    w_ab: float
    w_e: float


def one_way_ss(data: OneWayDataset | np.ndarray) -> OneWaySS:
    """Decompose a balanced one-way dataset, or a batch of them.

    w_e sums squared deviations from level means, w_h squared deviations
    of level means from the grand mean (over all observations), and
    w_t = w_e + w_h by construction. Constant data yields all zeros;
    rejecting that degenerate case is the consumer's concern.

    ``data`` is a dataset or an array of shape (..., p, r). The leading
    axes of an array index datasets, and the fields are then arrays over
    them; each dataset's sums equal those of its own 2-D slice bit for bit.
    """
    y = data.values if isinstance(data, OneWayDataset) else np.asarray(data)
    r = y.shape[-1]
    level_means = y.mean(axis=-1)
    grand_mean = level_means.mean(axis=-1)
    w_e = np.sum((y - level_means[..., None]) ** 2, axis=(-2, -1))
    w_h = r * np.sum((level_means - grand_mean[..., None]) ** 2, axis=-1)
    if y.ndim == 2:
        w_e, w_h = float(w_e), float(w_h)
    return OneWaySS(w_t=w_e + w_h, w_e=w_e, w_h=w_h)


def two_way_ss(dataset: TwoWayDataset) -> TwoWaySS:
    """Decompose a balanced two-way dataset.

    Main-effect sums measure marginal-mean deviations from the grand
    mean, the interaction sum measures cell-mean deviations net of both
    margins, and w_e the within-cell spread; w_t is their sum. Constant
    data yields all zeros.
    """
    y = dataset.values
    p, q, r = dataset.p, dataset.q, dataset.r
    cell_means = y.mean(axis=2)
    a_means = cell_means.mean(axis=1)
    b_means = cell_means.mean(axis=0)
    grand_mean = cell_means.mean()

    w_a = float(q * r * np.sum((a_means - grand_mean) ** 2))
    w_b = float(p * r * np.sum((b_means - grand_mean) ** 2))
    interaction_dev = cell_means - a_means[:, None] - b_means[None, :] + grand_mean
    w_ab = float(r * np.sum(interaction_dev**2))
    w_e = float(np.sum((y - cell_means[:, :, None]) ** 2))
    return TwoWaySS(w_t=w_a + w_b + w_ab + w_e, w_a=w_a, w_b=w_b, w_ab=w_ab, w_e=w_e)
