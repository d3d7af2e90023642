import itertools
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import anovabf._parallel as _parallel
import anovabf.bayes_factors as bayes_factors
import anovabf.simulation as simulation
from anovabf.bayes_factors import Criterion, Model, one_way_report
from anovabf.cli import write_csv
from anovabf.datasets import OneWayDataset
from anovabf.errors import DegenerateDataError, DomainError
from anovabf.simulation import (
    FREQUENCY_CSV_HEADER,
    FrequencyTable,
    SimulationConfig,
    _replication_keys,
    draw_noise,
    make_alpha,
    run_frequency_experiment,
)
from anovabf.sums_of_squares import one_way_ss


def stream(entropy, p, r, rep):
    seq = np.random.SeedSequence(entropy=entropy, spawn_key=(p, r, rep))
    return np.random.Generator(np.random.Philox(seq))


def reference_values(seed, p, r, c_a, rep):
    """One replication's data, drawn from its own SeedSequence-seeded stream."""
    return make_alpha(p, c_a)[:, None] + stream(seed, p, r, rep).standard_normal((p, r))


def reference_experiment(cfg):
    """The frequency table, one replication at a time through the CLI's scoring path."""
    keys = itertools.product(cfg.ca_list, cfg.criteria, cfg.p_list, cfg.r_list)
    frequencies = dict.fromkeys(keys, 0.0)
    for c_a, p, r in itertools.product(cfg.ca_list, cfg.p_list, cfg.r_list):
        hits = dict.fromkeys(cfg.criteria, 0)
        for rep in range(cfg.replications):
            values = reference_values(cfg.seed, p, r, c_a, rep)
            report = one_way_report(one_way_ss(OneWayDataset(values=values)), p, r)
            for criterion in cfg.criteria:
                chosen = report.choice_fb if criterion is Criterion.FB else report.choice_bic
                hits[criterion] += chosen is cfg.model
        for criterion in cfg.criteria:
            frequencies[(c_a, criterion, p, r)] = hits[criterion] / cfg.replications
    return FrequencyTable(
        model=cfg.model, replications=cfg.replications, seed=cfg.seed, frequencies=frequencies
    )


class TestSimulationConfig:
    def test_effects_forbidden_under_smaller_models(self):
        with pytest.raises(DomainError, match="c_a must be 0 under model '1'"):
            SimulationConfig(model=Model.NULL, p_list=(2,), r_list=(2,), ca_list=(0.0, 0.5))
        cfg = SimulationConfig(model=Model.FACTOR_A, p_list=(2,), r_list=(2,), ca_list=(0.5,))
        assert cfg.ca_list == (0.5,)

    @pytest.mark.parametrize("model", [Model.FACTOR_B, Model.ADDITIVE, Model.FULL])
    def test_two_way_truths_rejected(self, model):
        with pytest.raises(DomainError, match="one-way truth"):
            SimulationConfig(model=model, p_list=(2,), r_list=(2,))

    @pytest.mark.parametrize("ca_list", [(math.inf,), (math.nan,), (0.5, math.nan)])
    def test_non_finite_effect_rejected(self, ca_list):
        with pytest.raises(DomainError, match="truth c_a must be finite"):
            SimulationConfig(model=Model.FACTOR_A, p_list=(2,), r_list=(2,), ca_list=ca_list)

    def test_negative_effect_rejected(self):
        with pytest.raises(DomainError, match="c_a must be nonnegative"):
            SimulationConfig(model=Model.FACTOR_A, p_list=(2,), r_list=(2,), ca_list=(-1.0,))

    def test_defaults(self):
        cfg = SimulationConfig(model=Model.NULL, p_list=(2,), r_list=(3,))
        assert cfg.ca_list == (0.0,)
        assert cfg.replications == 2000
        assert cfg.seed == 0
        assert cfg.criteria == (Criterion.FB, Criterion.BIC)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"p_list": ()},
            {"r_list": ()},
            {"ca_list": ()},
            {"p_list": (1,)},
            {"r_list": (2, 1)},
            {"replications": 0},
            {"seed": -1},
            {"seed": 2**64},
            {"criteria": ()},
            {"replications": 2**32 + 1},
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        base = dict(model=Model.NULL, p_list=(2,), r_list=(2,))
        base.update(kwargs)
        with pytest.raises(DomainError):
            SimulationConfig(**base)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"p_list": (3, 4, 3)},
            {"r_list": (2, 2)},
            {"ca_list": (0.0, 0.0)},
            {"criteria": (Criterion.FB, Criterion.BIC, Criterion.FB)},
        ],
        ids=["p_list", "r_list", "ca_list", "criteria"],
    )
    def test_duplicate_entries_rejected(self, kwargs):
        base = dict(model=Model.NULL, p_list=(2,), r_list=(2,))
        base.update(kwargs)
        with pytest.raises(DomainError, match="duplicate") as exc:
            SimulationConfig(**base)
        assert "Criterion" not in str(exc.value)


class TestMakeAlpha:
    def test_two_levels_unit_effect(self):
        np.testing.assert_array_equal(make_alpha(2, 1.0), [1.0, -1.0])

    def test_three_levels_unit_effect(self):
        d = math.sqrt(1.5)
        np.testing.assert_allclose(make_alpha(3, 1.0), [d, -d, 0.0], rtol=1e-15)

    def test_null_effect_gives_zeros(self):
        np.testing.assert_array_equal(make_alpha(7, 0.0), np.zeros(7))

    @pytest.mark.parametrize("c_a", [0.0, 0.1, 0.5, 1.0, 2.0, 5.0])
    def test_constraints_across_level_counts(self, c_a):
        for p in range(2, 102):
            alpha = make_alpha(p, c_a)
            assert alpha.shape == (p,)
            assert abs(alpha.sum()) <= 1e-12 * (1.0 + np.abs(alpha).max())
            size = float(alpha @ alpha) / p
            np.testing.assert_allclose(size, c_a, rtol=1e-12, atol=1e-15)

    def test_single_level_rejected(self):
        with pytest.raises(DomainError):
            make_alpha(1, 1.0)

    @pytest.mark.parametrize("c_a", [math.nan, math.inf])
    def test_effect_size_not_finite_rejected(self, c_a):
        with pytest.raises(DomainError, match="c_a must be finite"):
            make_alpha(3, c_a)


class TestReplicationKeys:
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
    @pytest.mark.parametrize("p, r", [(2, 2), (10, 5), (100, 2), (70000, 3), (3, 2**40)])
    def test_keys_equal_seed_sequence(self, seed, p, r):
        for reps in (range(3), range(2**32 - 3, 2**32), range(7, 2**32, 2**30 + 1)):
            keys = _replication_keys(seed, p, r, reps)
            assert keys.shape == (len(reps), 2) and keys.dtype == np.uint64
            for rep, key in zip(reps, keys):
                seq = np.random.SeedSequence(entropy=seed, spawn_key=(p, r, rep))
                np.testing.assert_array_equal(key, seq.generate_state(2, np.uint64))

    def test_consecutive_replications(self):
        keys = _replication_keys(42, 5, 5, range(1995, 2005))
        for rep, key in zip(range(1995, 2005), keys):
            seq = np.random.SeedSequence(entropy=42, spawn_key=(5, 5, rep))
            np.testing.assert_array_equal(key, seq.generate_state(2, np.uint64))
        assert len({tuple(key) for key in keys}) == 10


class TestDrawNoise:
    def test_deterministic_given_stream_state(self):
        a = draw_noise(1, 3, 4, range(1))
        b = draw_noise(1, 3, 4, range(1))
        np.testing.assert_array_equal(a, b)

    def test_shape(self):
        d = draw_noise(2, 6, 3, range(1))
        assert d.shape == (1, 6, 3)

    def test_unit_variance(self):
        d = draw_noise(5, 10, 10000, range(1))[0]
        assert abs(d.var() - 1.0) < 0.02

    def test_equals_one_stream_per_replication(self):
        reps = range(5, 12)
        out = draw_noise(2**40 + 3, 7, 3, reps)
        for i, rep in enumerate(reps):
            np.testing.assert_array_equal(out[i], reference_values(2**40 + 3, 7, 3, 0.0, rep))


class TestFrequencyExperiment:
    def small_cfg(self, **kwargs):
        base = dict(
            model=Model.FACTOR_A,
            p_list=(2, 3),
            r_list=(2,),
            ca_list=(1.0,),
            replications=200,
            seed=11,
        )
        base.update(kwargs)
        return SimulationConfig(**base)

    def test_deterministic_repeat(self):
        a = run_frequency_experiment(self.small_cfg())
        b = run_frequency_experiment(self.small_cfg())
        assert a.frequencies == b.frequencies
        assert a.rows() == b.rows()

    def test_grid_composes_from_single_cells(self):
        grid = run_frequency_experiment(self.small_cfg())
        merged = {}
        for p in (2, 3):
            single = run_frequency_experiment(self.small_cfg(p_list=(p,)))
            merged.update(single.frequencies)
        assert grid.frequencies == merged

    def test_keys_and_range(self):
        table = run_frequency_experiment(self.small_cfg())
        assert set(table.frequencies) == {
            (1.0, c, p, 2) for c in (Criterion.FB, Criterion.BIC) for p in (2, 3)
        }
        assert all(0.0 <= v <= 1.0 for v in table.frequencies.values())

    def test_criteria_subset(self):
        table = run_frequency_experiment(self.small_cfg(criteria=(Criterion.FB,)))
        assert all(key[1] is Criterion.FB for key in table.frequencies)

    def test_csv_layout(self):
        table = run_frequency_experiment(self.small_cfg(p_list=(2,)))
        lines = write_csv(FREQUENCY_CSV_HEADER, table.rows()).strip().split("\n")
        assert lines[0] == ",".join(FREQUENCY_CSV_HEADER)
        assert len(lines) == 3
        fields = lines[1].split(",")
        assert fields[1] == "A+1"
        assert float(fields[2]) == 1.0
        assert (fields[3], fields[4]) == ("2", "2")
        assert 0.0 <= float(fields[5]) <= 1.0
        assert fields[6] == "200"
        assert fields[7] == "11"

    def test_f_statistic_mean_matches_theory(self):
        # under the null the variance-ratio statistic is F(p-1, p(r-1));
        # its mean p(r-1)/(p(r-1)-2) checks the whole generation pipeline
        p, r, reps = 5, 10, 10000
        ss = one_way_ss(draw_noise(7, p, r, range(reps)))
        total = sum(((ss.w_h / (p - 1)) / (ss.w_e / (p * (r - 1)))).tolist())
        d2 = p * (r - 1)
        target = d2 / (d2 - 2)
        var_f = 2.0 * d2**2 * (p - 1 + d2 - 2) / ((p - 1) * (d2 - 2) ** 2 * (d2 - 4))
        assert abs(total / reps - target) < 3.0 * math.sqrt(var_f / reps)

    def test_weak_effect_frequency_fades_with_levels(self):
        # effect below the r=2 selection threshold: more levels, fewer hits
        freqs = []
        for p in (10, 50, 100):
            cfg = SimulationConfig(
                model=Model.FACTOR_A,
                p_list=(p,),
                r_list=(2,),
                ca_list=(0.1,),
                replications=2000,
                seed=42,
                criteria=(Criterion.FB,),
            )
            table = run_frequency_experiment(cfg)
            freqs.append(table.frequencies[(0.1, Criterion.FB, p, 2)])
        assert freqs[0] >= freqs[1] >= freqs[2]
        assert freqs[2] <= 0.02

    def test_frequency_table_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            FrequencyTable(
                model=Model.NULL,
                replications=10,
                seed=0,
                frequencies={(0.0, Criterion.FB, 2, 2): 1.5},
            )

    @pytest.mark.parametrize("chunk_values", [1, 7, 50, simulation._CHUNK_VALUES])
    def test_table_independent_of_chunk_size(self, chunk_values, monkeypatch):
        cfg = self.small_cfg(r_list=(2, 5), replications=123)
        default = run_frequency_experiment(cfg).rows()
        monkeypatch.setattr(simulation, "_CHUNK_VALUES", chunk_values)
        assert run_frequency_experiment(cfg).rows() == default

    @pytest.mark.parametrize(
        "model, ca_list",
        [(Model.NULL, (0.0,)), (Model.FACTOR_A, (0.4,)), (Model.FACTOR_A, (0.4, 0.0, 1.5))],
        ids=["null", "level-means", "effect-grid"],
    )
    def test_equals_one_replication_at_a_time(self, model, ca_list, monkeypatch):
        monkeypatch.setattr(simulation, "_CHUNK_VALUES", 64)
        cfg = self.small_cfg(
            p_list=(2, 5), r_list=(2, 3), model=model, ca_list=ca_list, seed=2**33 + 1
        )
        table = run_frequency_experiment(cfg)
        reference = reference_experiment(cfg)
        assert table.frequencies == reference.frequencies
        assert list(table.frequencies) == list(reference.frequencies)
        assert table.rows() == reference.rows()
        # the grid equals its effect sizes run one at a time, in ca_list order
        single = [run_frequency_experiment(replace(cfg, ca_list=(c_a,))) for c_a in ca_list]
        assert table.rows() == [row for part in single for row in part.rows()]

    def test_noise_drawn_once_per_chunk(self, monkeypatch):
        draw, calls = simulation.draw_noise, []

        def counted(seed, p, r, reps):
            calls.append((p, r, reps))
            return draw(seed, p, r, reps)

        monkeypatch.setattr(simulation, "draw_noise", counted)
        run_frequency_experiment(self.small_cfg(ca_list=(0.5, 1.0, 2.0)))
        assert calls == [(2, 2, range(200)), (3, 2, range(200))]

    @pytest.mark.parametrize("chunk_values", [12, simulation._CHUNK_VALUES])
    def test_zero_total_names_replication(self, chunk_values, monkeypatch):
        draw = simulation.draw_noise

        def flat_replication_13(seed, p, r, reps):
            noise = draw(seed, p, r, reps)
            if 13 in reps:
                # noise that cancels the level effects leaves every value 0
                noise[reps.index(13)] = -make_alpha(p, 1.0)[:, None]
            return noise

        monkeypatch.setattr(simulation, "_CHUNK_VALUES", chunk_values)
        monkeypatch.setattr(simulation, "draw_noise", flat_replication_13)
        with pytest.raises(
            DegenerateDataError, match=r"replication 13 at \(p=3, r=2, seed=11\) .* \(c_a=1\.0\)"
        ):
            run_frequency_experiment(self.small_cfg(p_list=(3,)))

    @pytest.mark.parametrize(
        "model, c_a, frequency",
        [(Model.NULL, 0.0, 1.0), (Model.FACTOR_A, 1.0, 0.0)],
        ids=["null", "level-means"],
    )
    def test_tie_goes_to_the_null(self, model, c_a, frequency, monkeypatch):
        # choose_model keeps the null at a log Bayes factor of exactly 0
        def tie(n, s1, log_ratio):
            return np.zeros_like(log_ratio)

        monkeypatch.setattr(bayes_factors, "_log_bf_fb_kernel", tie)
        monkeypatch.setattr(bayes_factors, "_log_bf_bic_kernel", tie)
        table = run_frequency_experiment(self.small_cfg(model=model, ca_list=(c_a,)))
        assert set(table.frequencies.values()) == {frequency}

    def test_effect_beyond_double_range_of_squares(self):
        # the effects are finite but the sums of their squares overflow;
        # the unit-scale shares see an effect that dwarfs the noise
        with np.errstate(over="ignore"):
            assert one_way_ss(np.zeros((10, 2)) + make_alpha(10, 1e307)[:, None]).w_t == math.inf
        cfg = self.small_cfg(p_list=(10,), r_list=(2, 4), ca_list=(1e307,))
        assert set(run_frequency_experiment(cfg).frequencies.values()) == {1.0}

    def test_cell_beyond_array_size_named(self):
        # numpy refuses a 2**80-value buffer by its size, before allocating
        cfg = self.small_cfg(p_list=(2**40,), r_list=(2**40,), replications=1)
        with pytest.raises(DomainError, match=rf"cell \(p={2**40}, r={2**40}\)"):
            run_frequency_experiment(cfg)

    def test_cell_beyond_memory_named(self, monkeypatch):
        def out_of_memory(shape, *args, **kwargs):
            raise MemoryError("Unable to allocate")

        monkeypatch.setattr(simulation.np, "empty", out_of_memory)
        with pytest.raises(DomainError, match=r"cell \(p=3, r=2\)"):
            run_frequency_experiment(self.small_cfg(p_list=(3,)))

    def test_overflowing_effect_names_replication(self):
        cfg = self.small_cfg(p_list=(3,), ca_list=(1e308,))
        with pytest.raises(
            DomainError, match=r"replication 0 at \(p=3, r=2, seed=11\).*not finite \(c_a=1e\+308\)"
        ):
            run_frequency_experiment(cfg)


def reference_alternative_hits(cfg, p, r, reps):
    """Alternative hits with every effect size scored on its data, noise +
    alpha, through ``one_way_ss``'s unit-scale sums."""
    noise = draw_noise(cfg.seed, p, r, reps)
    hits = {}
    for c_a in cfg.ca_list:
        with np.errstate(over="ignore"):
            ss = one_way_ss(noise + make_alpha(p, c_a)[:, None]).unit
        log_fb, log_bic = bayes_factors.log_bfs(p * r, p, ss.w_e / ss.w_t)
        for criterion, log_bf in ((Criterion.FB, log_fb), (Criterion.BIC, log_bic)):
            if criterion in cfg.criteria:
                hits[(c_a, criterion)] = int(np.count_nonzero(log_bf > 0))
    return hits


def cell_hits(cfg, p, r, reps):
    """``_part_hits`` of replications ``reps`` of a one-cell grid, keyed by
    (c_a, criterion)."""
    assert (cfg.p_list, cfg.r_list) == ((p,), (r,))
    keys = itertools.product(cfg.ca_list, cfg.criteria)
    return dict(zip(keys, simulation._part_hits(cfg, [(p, r, reps)])))


class TestSharedLevelMeans:
    """Every effect size scored from one pass over a chunk's level means,
    against scoring each on its own data."""

    @pytest.mark.parametrize("chunk_values", [256, simulation._CHUNK_VALUES])
    @pytest.mark.parametrize(
        "p, r, seed, replications",
        [(2, 2, 0, 600), (3, 5, 7, 400), (10, 2, 2**40 + 3, 300), (17, 4, 2**64 - 1, 200)],
    )
    def test_same_hits_as_scoring_the_data(self, p, r, seed, replications, chunk_values, monkeypatch):
        monkeypatch.setattr(simulation, "_CHUNK_VALUES", chunk_values)
        cfg = SimulationConfig(
            model=Model.FACTOR_A,
            p_list=(p,),
            r_list=(r,),
            ca_list=(0.0, 1e-300, 1.0, 1e300, 1e307),
            replications=replications,
            seed=seed,
        )
        reps = range(replications)
        hits = cell_hits(cfg, p, r, reps)
        assert hits == reference_alternative_hits(cfg, p, r, reps)
        # the effects beyond the range of a double's squares are always found
        assert hits[(1e307, Criterion.FB)] == hits[(1e307, Criterion.BIC)] == replications

    def test_same_hits_from_a_later_chunk(self, monkeypatch):
        monkeypatch.setattr(simulation, "_CHUNK_VALUES", 64)
        cfg = SimulationConfig(
            model=Model.FACTOR_A, p_list=(4,), r_list=(3,), ca_list=(0.0, 0.5, 1e307), seed=3
        )
        reps = range(5 * simulation._chunk_reps(4, 3), 9 * simulation._chunk_reps(4, 3) + 1)
        hits = cell_hits(cfg, 4, 3, reps)
        assert hits == reference_alternative_hits(cfg, 4, 3, reps)


def table_rows(cfg):
    return run_frequency_experiment(cfg).rows()


def outcome(cfg):
    """The table's rows, or the type and message of the error raised."""
    try:
        return table_rows(cfg)
    except Exception as exc:
        return type(exc).__name__, str(exc)


PARITY_CASES = {
    "one-chunk-cells": dict(
        p_list=(2, 3, 4), r_list=(2, 3), ca_list=(0.5, 1.0, 0.0), replications=50, seed=0
    ),
    "many-chunk-cells": dict(
        p_list=(10, 3), r_list=(5, 2), ca_list=(0.3, 1.0), replications=1500, seed=7
    ),
    "seed-beyond-32-bits": dict(
        p_list=(2, 5), r_list=(2, 3), ca_list=(0.4,), replications=300, seed=2**40 + 3
    ),
    "largest-seed": dict(
        p_list=(2, 5), r_list=(2, 3), ca_list=(1.0,), replications=300, seed=2**64 - 1
    ),
    "null-truth": dict(model=Model.NULL, p_list=(4, 6), r_list=(2, 4), replications=400, seed=11),
}


class TestPartsAgreeWithOnePart:
    """The grid cut into 2 or 3 parts, all but the first run by forked
    children, against the same grid in one part."""

    @pytest.fixture(params=[2, 3], ids=lambda k: f"parts-{k}")
    def parts(self, request, monkeypatch):
        monkeypatch.setattr(simulation, "_FORK_VALUES", 1)
        monkeypatch.setattr(_parallel, "cpus", lambda: request.param)
        return request.param

    def cfg(self, case):
        return SimulationConfig(**{"model": Model.FACTOR_A, **PARITY_CASES[case]})

    @pytest.mark.parametrize("chunk_values", [256, simulation._CHUNK_VALUES])
    @pytest.mark.parametrize("case", sorted(PARITY_CASES))
    def test_same_rows(self, case, chunk_values, parts, forks, no_children, monkeypatch):
        monkeypatch.setattr(simulation, "_CHUNK_VALUES", chunk_values)
        cfg = self.cfg(case)
        assert len(simulation._parts(cfg, parts)) == parts
        forked = table_rows(cfg)
        assert len(forks) == parts - 1
        no_children()
        monkeypatch.setattr(_parallel, "cpus", lambda: 1)
        assert table_rows(cfg) == forked
        assert len(forks) == parts - 1
        no_children()

    @pytest.mark.parametrize("case", sorted(PARITY_CASES))
    def test_parts_cover_each_replication_once(self, case, parts):
        cfg = self.cfg(case)
        cut = simulation._parts(cfg, parts)
        spans = [span for part in cut for span in part]
        for p, r in itertools.product(cfg.p_list, cfg.r_list):
            reps = [rep for q, s, span in spans if (q, s) == (p, r) for rep in span]
            assert reps == list(range(cfg.replications))
        chunk = simulation._chunk_reps
        assert all(span.start % chunk(p, r) == 0 for p, r, span in spans)

    def test_parts_share_the_cost_to_within_a_chunk(self, monkeypatch):
        # a replication costs its p * r values and its stream set-up; a part
        # starts at the first chunk boundary past its share of the grid's cost
        rng = np.random.default_rng(24)
        checked = 0
        for _ in range(2000):
            chunk_values = int(rng.choice([1, 12, 64, 256, 2**16]))
            monkeypatch.setattr(simulation, "_CHUNK_VALUES", chunk_values)
            cfg = SimulationConfig(
                model=Model.NULL,
                p_list=tuple(rng.choice(range(2, 40), rng.integers(1, 5), replace=False).tolist()),
                r_list=tuple(rng.choice(range(2, 30), rng.integers(1, 4), replace=False).tolist()),
                replications=int(rng.integers(1, 2 ** rng.integers(1, 21), endpoint=True)),
            )
            k = int(rng.choice([2, 3, 4, 7]))
            cut = simulation._parts(cfg, k)
            if len(cut) < k:
                continue
            cost = {
                (p, r): p * r + simulation._REKEY_VALUES
                for p, r in itertools.product(cfg.p_list, cfg.r_list)
            }
            costs = [sum(len(reps) * cost[p, r] for p, r, reps in part) for part in cut]
            largest = max(
                min(simulation._chunk_reps(p, r), cfg.replications) * cost[p, r] for p, r in cost
            )
            assert all(abs(k * part - sum(costs)) <= k * largest for part in costs)
            checked += 1
        assert checked > 1000

    def test_forks_from_a_million_values_per_cpu(self, forks, no_children, monkeypatch):
        monkeypatch.setattr(_parallel, "cpus", lambda: 2)
        cfg = SimulationConfig(model=Model.NULL, p_list=(16,), r_list=(8,), seed=5)
        reps = 2 * simulation._FORK_VALUES // 128
        table_rows(replace(cfg, replications=reps - 1))
        assert forks == []
        table_rows(replace(cfg, replications=reps))
        assert len(forks) == 1
        no_children()

    @staticmethod
    def broken_draws(monkeypatch, faults):
        """Make ``draw_noise`` give replication ``rep`` of cell (p, r) noise
        of ``value`` for each ``(p, r, rep, value)`` of faults."""
        draw = simulation.draw_noise

        def broken(seed, p, r, reps):
            noise = draw(seed, p, r, reps)
            for q, s, rep, value in faults:
                if (q, s) == (p, r) and rep in reps:
                    noise[reps.index(rep)] = value
            return noise

        monkeypatch.setattr(simulation, "draw_noise", broken)

    @pytest.mark.parametrize(
        "faults, error",
        [
            ([(4, 3, 40, "flat")], "DegenerateDataError"),
            ([(4, 3, 40, math.inf)], "DomainError"),
            ([(4, 2, 7, math.inf), (4, 3, 40, "flat")], "DomainError"),
            ([(4, 2, 7, "flat"), (4, 3, 40, math.inf)], "DegenerateDataError"),
        ],
        ids=["flat-late", "overflow-late", "overflow-then-flat", "flat-then-overflow"],
    )
    def test_same_error_from_a_later_part(self, faults, error, parts, forks, no_children, monkeypatch):
        cfg = self.cfg("one-chunk-cells")
        # "flat": noise that cancels the c_a = 1 effects leaves every value 0
        faults = [
            (p, r, rep, -make_alpha(p, 1.0)[:, None] if value == "flat" else value)
            for p, r, rep, value in faults
        ]
        self.broken_draws(monkeypatch, faults)
        # the faults fall in later parts only, the first in serial order in the second part
        cut = simulation._parts(cfg, parts)
        assert (4, 2, range(50)) in cut[1]
        assert {(p, r) for p, r, *_ in faults} <= {(p, r) for part in cut[1:] for p, r, _ in part}
        forked = outcome(cfg)
        assert forked[0] == error
        assert "seed=0" in forked[1]
        assert len(forks) == parts - 1
        no_children()
        monkeypatch.setattr(_parallel, "cpus", lambda: 1)
        assert outcome(cfg) == forked

    def test_same_cell_size_error_from_a_later_part(self, parts, forks, no_children, monkeypatch):
        empty = np.empty

        def out_of_memory(shape, *args, **kwargs):
            if isinstance(shape, tuple) and shape[-2:] == (4, 3):
                raise MemoryError("Unable to allocate")
            return empty(shape, *args, **kwargs)

        monkeypatch.setattr(simulation.np, "empty", out_of_memory)
        cfg = self.cfg("one-chunk-cells")
        forked = outcome(cfg)
        assert forked[0] == "DomainError" and forked[1].startswith("cell (p=4, r=3) needs 12 values")
        assert len(forks) == parts - 1
        no_children()
        monkeypatch.setattr(_parallel, "cpus", lambda: 1)
        assert outcome(cfg) == forked

    def test_part_of_a_child_that_dies_is_run_here(self, parts, forks, no_children, monkeypatch):
        cfg = self.cfg("many-chunk-cells")
        expected = table_rows(cfg)
        parent, hits = os.getpid(), simulation._part_hits

        def dies(*args):
            if os.getpid() != parent:
                os._exit(1)
            return hits(*args)

        monkeypatch.setattr(simulation, "_part_hits", dies)
        assert table_rows(cfg) == expected
        assert len(forks) == 2 * (parts - 1)
        no_children()

    def test_parts_run_here_when_fork_fails(self, parts, no_children, monkeypatch):
        cfg = self.cfg("many-chunk-cells")
        expected = table_rows(cfg)

        def fails():
            raise BlockingIOError("fork: resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", fails)
        assert table_rows(cfg) == expected
        no_children()

    def test_a_part_loads_no_module_anew(self, child_env):
        # a fresh interpreter, so that no other test has loaded a module first;
        # each part reports the modules it loaded that the parent had not
        # loaded when it forked
        script = """
import sys
from anovabf import simulation
from anovabf._parallel import map_parts
from anovabf.bayes_factors import Model

cfg = simulation.SimulationConfig(
    model=Model.FACTOR_A, p_list=(3,), r_list=(2,), replications=20000, seed=1
)
loaded = set(sys.modules)

def part(cfg, part):
    simulation._part_hits(cfg, part)
    return sorted(set(sys.modules) - loaded)

print(list(map_parts(part, [(cfg, part) for part in simulation._parts(cfg, 2)])))
"""
        run = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=child_env, check=True
        )
        assert run.stdout == "[[], []]\n"

    def test_children_reaped_when_this_part_raises(self, parts, forks, no_children, monkeypatch):
        parent, hits = os.getpid(), simulation._part_hits

        def interrupted(*args):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return hits(*args)

        monkeypatch.setattr(simulation, "_part_hits", interrupted)
        with pytest.raises(KeyboardInterrupt):
            table_rows(self.cfg("many-chunk-cells"))
        assert len(forks) == parts - 1
        no_children()
