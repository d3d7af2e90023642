"""ANOVA sums-of-squares decompositions for balanced layouts.

These decompositions are the only data summaries the Bayes factors
consume. Totals are stored as the sum of their components so the
partition identity holds exactly in floating point; an independent
grand-mean computation of the total is a test concern, not an output.

Sums hold at any data scale. Each dataset is decomposed once, on the
data times the power of two that brings its largest magnitude into
[0.5, 1); those sums are the result's ``unit`` field, off which the
Bayes factors read each model's share of the total. The reported
fields are the same sums times the matching power of four: the sums
of the data as given, ``inf`` beyond the largest double and 0.0 below
the smallest. Scaling by a power of two is exact, so they are the
plain computation bit for bit unless a square at either scale
overflows or is subnormal; at unit magnitude that needs a deviation
below 2**-511 of the largest magnitude, which moves a sum only when
the levels holding the largest values are exactly constant.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

import numpy as np

from .errors import DegenerateDesignError

if TYPE_CHECKING:  # the CSV reader is not loaded by consumers of plain arrays
    from .datasets import OneWayDataset, TwoWayDataset


@dataclass(frozen=True)
class OneWaySS:
    """Total / within-group / between-group sums of squares.

    Floats for one dataset; arrays over the leading axes of a batch.
    ``unit`` holds the sums of the data scaled to unit magnitude (largest
    magnitude in [0.5, 1)); a value built without it is read as its own
    unit sums.
    """

    w_t: float
    w_e: float
    w_h: float
    unit: OneWaySS | None = None


@dataclass(frozen=True)
class TwoWaySS:
    """Total / factor-A / factor-B / interaction / within sums of squares.

    ``unit`` holds the sums of the data at unit magnitude, as in :class:`OneWaySS`.
    """

    w_t: float
    w_a: float
    w_b: float
    w_ab: float
    w_e: float
    unit: TwoWaySS | None = None


def _at_any_scale(sums_of, y: np.ndarray, axes: tuple[int, ...]):
    """``sums_of(y)``, taken once on each dataset scaled to unit magnitude.

    ``axes`` are the axes of one dataset. Returns the sums of the data
    as given, with the unit-magnitude sums as their ``unit`` field.
    """
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        exponent = np.frexp(np.max(np.abs(y), axis=axes))[1]
        return _times_four_to(sums_of(np.ldexp(y, -np.expand_dims(exponent, axes))), exponent)


def _times_four_to(unit, power):
    """``unit`` times 4**power, with floats kept floats, and ``unit`` as its unit field."""
    cast = float if isinstance(unit.w_t, float) else np.asarray
    scaled = {
        f.name: cast(np.ldexp(getattr(unit, f.name), 2 * power))
        for f in fields(unit)
        if f.name != "unit"
    }
    return type(unit)(**scaled, unit=unit)


def _level_split(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Level means' deviations from their grand mean, and w_e, over y's last two axes."""
    level_means = y.mean(axis=-1)
    deviations = level_means - level_means.mean(axis=-1)[..., None]
    return deviations, np.sum((y - level_means[..., None]) ** 2, axis=(-2, -1))


def _one_way_sums(y: np.ndarray) -> OneWaySS:
    deviations, w_e = _level_split(y)
    w_h = y.shape[-1] * np.sum(deviations**2, axis=-1)
    if y.ndim == 2:
        w_e, w_h = float(w_e), float(w_h)
    return OneWaySS(w_t=w_e + w_h, w_e=w_e, w_h=w_h)


def _two_way_sums(y: np.ndarray) -> TwoWaySS:
    p, q, r = y.shape
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


def one_way_ss(data: OneWayDataset | np.ndarray) -> OneWaySS:
    """Decompose a balanced one-way dataset, or a batch of them.

    w_e sums squared deviations from level means, w_h squared deviations
    of level means from the grand mean (over all observations), and
    w_t = w_e + w_h by construction. Constant data yields all zeros;
    rejecting that degenerate case is the consumer's concern. Data that
    is not finite gives sums that are not finite.

    ``data`` is a dataset or an array of shape (..., p, r). The leading
    axes of an array index datasets, and the fields are then arrays over
    them; each dataset's sums equal those of its own 2-D slice bit for bit.
    An array of fewer than 2 dimensions raises :class:`DegenerateDesignError`.
    """
    y = np.asarray(getattr(data, "values", data))
    if y.ndim < 2:
        raise DegenerateDesignError(f"need a (..., levels, replicates) array, got {y.shape}")
    return _at_any_scale(_one_way_sums, y, (-2, -1))


def two_way_ss(dataset: TwoWayDataset) -> TwoWaySS:
    """Decompose a balanced two-way dataset.

    Main-effect sums measure marginal-mean deviations from the grand
    mean, the interaction sum measures cell-mean deviations net of both
    margins, and w_e the within-cell spread; w_t is their sum. Constant
    data yields all zeros.
    """
    return _at_any_scale(_two_way_sums, dataset.values, (0, 1, 2))
