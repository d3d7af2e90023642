import math

import numpy as np
import pytest

import anovabf.bayes_factors as bayes_factors
import anovabf.simulation as simulation
from anovabf.bayes_factors import Criterion, Model, one_way_report
from anovabf.datasets import OneWayDataset
from anovabf.errors import DegenerateDataError, DomainError
from anovabf.simulation import (
    FREQUENCY_CSV_HEADER,
    FrequencyTable,
    SimulationConfig,
    TruthSpec,
    _replication_keys,
    draw_one_way,
    make_alpha,
    run_frequency_experiment,
)
from anovabf.sums_of_squares import one_way_ss


def stream(entropy, p, r, rep):
    seq = np.random.SeedSequence(entropy=entropy, spawn_key=(p, r, rep))
    return np.random.Generator(np.random.Philox(seq))


def reference_values(seed, p, r, truth, rep):
    """One replication's data, drawn from its own SeedSequence-seeded stream."""
    alpha = make_alpha(p, truth.c_a, truth.sigma2) if truth.model is Model.FACTOR_A else np.zeros(p)
    noise = stream(seed, p, r, rep).standard_normal((p, r))
    return truth.mu + alpha[:, None] + math.sqrt(truth.sigma2) * noise


def reference_experiment(cfg):
    """The frequency table, one replication at a time through the CLI's scoring path."""
    frequencies = {}
    for criterion in cfg.criteria:
        for p in cfg.p_list:
            for r in cfg.r_list:
                frequencies[(criterion, p, r)] = 0.0
    for p in cfg.p_list:
        for r in cfg.r_list:
            hits = dict.fromkeys(cfg.criteria, 0)
            for rep in range(cfg.replications):
                values = reference_values(cfg.seed, p, r, cfg.truth, rep)
                report = one_way_report(one_way_ss(OneWayDataset(values=values)), p, r)
                for criterion in cfg.criteria:
                    chosen = report.choice_fb if criterion is Criterion.FB else report.choice_bic
                    hits[criterion] += chosen is cfg.truth.model
            for criterion in cfg.criteria:
                frequencies[(criterion, p, r)] = hits[criterion] / cfg.replications
    return FrequencyTable(
        truth=cfg.truth, replications=cfg.replications, seed=cfg.seed, frequencies=frequencies
    )


class TestTruthSpec:
    def test_effects_forbidden_under_smaller_models(self):
        with pytest.raises(DomainError):
            TruthSpec(model=Model.NULL, c_a=0.5)
        assert TruthSpec(model=Model.FACTOR_A, c_a=0.5).c_a == 0.5

    @pytest.mark.parametrize("model", [Model.FACTOR_B, Model.ADDITIVE, Model.FULL])
    def test_two_way_truths_rejected(self, model):
        with pytest.raises(DomainError, match="one-way truth"):
            TruthSpec(model=model)

    @pytest.mark.parametrize("kwargs", [{"mu": math.inf}, {"mu": math.nan}, {"sigma2": math.inf}])
    def test_non_finite_parameters_rejected(self, kwargs):
        with pytest.raises(DomainError):
            TruthSpec(model=Model.NULL, **kwargs)

    def test_negative_effect_rejected(self):
        with pytest.raises(DomainError):
            TruthSpec(model=Model.FACTOR_A, c_a=-1.0)

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(DomainError):
            TruthSpec(model=Model.NULL, sigma2=0.0)


class TestSimulationConfig:
    def good_truth(self):
        return TruthSpec(model=Model.NULL)

    def test_defaults(self):
        cfg = SimulationConfig(p_list=(2,), r_list=(3,), truth=self.good_truth())
        assert cfg.replications == 2000
        assert cfg.seed == 0
        assert cfg.criteria == (Criterion.FB, Criterion.BIC)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"p_list": ()},
            {"r_list": ()},
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
        base = dict(p_list=(2,), r_list=(2,), truth=self.good_truth())
        base.update(kwargs)
        with pytest.raises(DomainError):
            SimulationConfig(**base)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"p_list": (3, 4, 3)},
            {"r_list": (2, 2)},
            {"criteria": (Criterion.FB, Criterion.BIC, Criterion.FB)},
        ],
        ids=["p_list", "r_list", "criteria"],
    )
    def test_duplicate_entries_rejected(self, kwargs):
        base = dict(p_list=(2,), r_list=(2,), truth=self.good_truth())
        base.update(kwargs)
        with pytest.raises(DomainError, match="duplicate") as exc:
            SimulationConfig(**base)
        assert "Criterion" not in str(exc.value)


class TestMakeAlpha:
    def test_two_levels_unit_effect(self):
        np.testing.assert_array_equal(make_alpha(2, 1.0, 1.0), [1.0, -1.0])

    def test_three_levels_unit_effect(self):
        d = math.sqrt(1.5)
        np.testing.assert_allclose(make_alpha(3, 1.0, 1.0), [d, -d, 0.0], rtol=1e-15)

    def test_null_effect_gives_zeros(self):
        np.testing.assert_array_equal(make_alpha(7, 0.0, 3.0), np.zeros(7))

    @pytest.mark.parametrize("c_a", [0.0, 0.1, 0.5, 1.0, 2.0, 5.0])
    def test_constraints_across_level_counts(self, c_a):
        sigma2 = 2.7
        for p in range(2, 102):
            alpha = make_alpha(p, c_a, sigma2)
            assert alpha.shape == (p,)
            assert abs(alpha.sum()) <= 1e-12 * (1.0 + np.abs(alpha).max())
            size = float(alpha @ alpha) / (p * sigma2)
            np.testing.assert_allclose(size, c_a, rtol=1e-12, atol=1e-15)

    def test_single_level_rejected(self):
        with pytest.raises(DomainError):
            make_alpha(1, 1.0, 1.0)


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


class TestSimulateOneWay:
    def test_deterministic_given_stream_state(self):
        truth = TruthSpec(model=Model.FACTOR_A, c_a=1.0)
        a = draw_one_way(1, 3, 4, truth, range(1))
        b = draw_one_way(1, 3, 4, truth, range(1))
        np.testing.assert_array_equal(a, b)

    def test_shape(self):
        d = draw_one_way(2, 6, 3, TruthSpec(model=Model.NULL), range(1))
        assert d.shape == (1, 6, 3)

    def test_mean_structure_with_tiny_noise(self):
        truth = TruthSpec(model=Model.FACTOR_A, c_a=1.0, mu=10.0, sigma2=1e-12)
        d = draw_one_way(3, 4, 3, truth, range(1))[0]
        expected = 10.0 + make_alpha(4, 1.0, 1e-12)
        np.testing.assert_allclose(d.mean(axis=1), expected, atol=1e-5)
        assert d.std(axis=1).max() < 1e-5

    def test_null_centers_on_grand_mean(self):
        truth = TruthSpec(model=Model.NULL, mu=-3.0, sigma2=1e-12)
        d = draw_one_way(4, 5, 2, truth, range(1))[0]
        np.testing.assert_allclose(d, -3.0, atol=1e-5)

    def test_noise_scale(self):
        truth = TruthSpec(model=Model.NULL, sigma2=4.0)
        d = draw_one_way(5, 10, 10000, truth, range(1))[0]
        assert abs(d.var() / 4.0 - 1.0) < 0.02

    def test_two_way_truth_rejected(self):
        with pytest.raises(DomainError):
            draw_one_way(6, 3, 3, TruthSpec(model=Model.FULL), range(1))

    @pytest.mark.parametrize(
        "truth",
        [
            TruthSpec(model=Model.NULL),
            TruthSpec(model=Model.FACTOR_A, c_a=0.7, mu=2.5, sigma2=3.0),
        ],
        ids=["null", "level-means"],
    )
    def test_equals_one_stream_per_replication(self, truth):
        reps = range(5, 12)
        out = np.full((len(reps), 7, 3), np.nan)
        assert draw_one_way(2**40 + 3, 7, 3, truth, reps, out=out) is out
        for i, rep in enumerate(reps):
            np.testing.assert_array_equal(out[i], reference_values(2**40 + 3, 7, 3, truth, rep))


class TestFrequencyExperiment:
    def small_cfg(self, **kwargs):
        base = dict(
            p_list=(2, 3),
            r_list=(2,),
            truth=TruthSpec(model=Model.FACTOR_A, c_a=1.0),
            replications=200,
            seed=11,
        )
        base.update(kwargs)
        return SimulationConfig(**base)

    def test_deterministic_repeat(self):
        a = run_frequency_experiment(self.small_cfg())
        b = run_frequency_experiment(self.small_cfg())
        assert a.frequencies == b.frequencies
        assert a.to_csv() == b.to_csv()

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
            (c, p, 2) for c in (Criterion.FB, Criterion.BIC) for p in (2, 3)
        }
        assert all(0.0 <= v <= 1.0 for v in table.frequencies.values())

    def test_criteria_subset(self):
        table = run_frequency_experiment(self.small_cfg(criteria=(Criterion.FB,)))
        assert all(key[0] is Criterion.FB for key in table.frequencies)

    def test_csv_layout(self):
        table = run_frequency_experiment(self.small_cfg(p_list=(2,)))
        lines = table.to_csv().strip().split("\n")
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
        truth = TruthSpec(model=Model.NULL)
        ss = one_way_ss(draw_one_way(7, p, r, truth, range(reps)))
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
                p_list=(p,),
                r_list=(2,),
                truth=TruthSpec(model=Model.FACTOR_A, c_a=0.1),
                replications=2000,
                seed=42,
                criteria=(Criterion.FB,),
            )
            table = run_frequency_experiment(cfg)
            freqs.append(table.frequencies[(Criterion.FB, p, 2)])
        assert freqs[0] >= freqs[1] >= freqs[2]
        assert freqs[2] <= 0.02

    def test_frequency_table_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            FrequencyTable(
                truth=TruthSpec(model=Model.NULL),
                replications=10,
                seed=0,
                frequencies={(Criterion.FB, 2, 2): 1.5},
            )

    @pytest.mark.parametrize("chunk_values", [1, 7, 50, simulation._CHUNK_VALUES])
    def test_table_independent_of_chunk_size(self, chunk_values, monkeypatch):
        cfg = self.small_cfg(r_list=(2, 5), replications=123)
        default = run_frequency_experiment(cfg).to_csv()
        monkeypatch.setattr(simulation, "_CHUNK_VALUES", chunk_values)
        assert run_frequency_experiment(cfg).to_csv() == default

    @pytest.mark.parametrize(
        "truth",
        [TruthSpec(model=Model.NULL), TruthSpec(model=Model.FACTOR_A, c_a=0.4, sigma2=2.0)],
        ids=["null", "level-means"],
    )
    def test_equals_one_replication_at_a_time(self, truth, monkeypatch):
        monkeypatch.setattr(simulation, "_CHUNK_VALUES", 64)
        cfg = self.small_cfg(p_list=(2, 5), r_list=(2, 3), truth=truth, seed=2**33 + 1)
        table = run_frequency_experiment(cfg)
        reference = reference_experiment(cfg)
        assert table.frequencies == reference.frequencies
        assert list(table.frequencies) == list(reference.frequencies)
        assert table.to_csv() == reference.to_csv()

    @pytest.mark.parametrize("chunk_values", [12, simulation._CHUNK_VALUES])
    def test_zero_total_names_replication(self, chunk_values, monkeypatch):
        draw = simulation.draw_one_way

        def flat_replication_13(seed, p, r, truth, reps, out=None):
            values = draw(seed, p, r, truth, reps, out)
            if 13 in reps:
                values[reps.index(13)] = 1.0
            return values

        monkeypatch.setattr(simulation, "_CHUNK_VALUES", chunk_values)
        monkeypatch.setattr(simulation, "draw_one_way", flat_replication_13)
        with pytest.raises(DegenerateDataError, match=r"replication 13 at \(p=3, r=2, seed=11\)"):
            run_frequency_experiment(self.small_cfg(p_list=(3,)))

    @pytest.mark.parametrize(
        "truth, frequency",
        [(TruthSpec(model=Model.NULL), 1.0), (TruthSpec(model=Model.FACTOR_A, c_a=1.0), 0.0)],
        ids=["null", "level-means"],
    )
    def test_tie_goes_to_the_null(self, truth, frequency, monkeypatch):
        # choose_model keeps the null at a log Bayes factor of exactly 0
        def tie(n, s1, log_ratio):
            return np.zeros_like(log_ratio)

        monkeypatch.setattr(bayes_factors, "_log_bf_fb_kernel", tie)
        monkeypatch.setattr(bayes_factors, "_log_bf_bic_kernel", tie)
        table = run_frequency_experiment(self.small_cfg(truth=truth))
        assert set(table.frequencies.values()) == {frequency}

    def test_noise_beyond_double_range_of_squares(self):
        # a power-of-two variance scales the draws exactly, and their squares
        # overflow; the unit-scale shares pick the same models
        cells = dict(p_list=(10,), r_list=(2, 4), truth=TruthSpec(model=Model.NULL))
        base = run_frequency_experiment(self.small_cfg(**cells))
        loud = run_frequency_experiment(
            self.small_cfg(**cells | dict(truth=TruthSpec(model=Model.NULL, sigma2=2.0**1020)))
        )
        assert loud.frequencies == base.frequencies

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
        truth = TruthSpec(model=Model.FACTOR_A, c_a=1e300, sigma2=1e10)
        with pytest.raises(DomainError, match=r"replication 0 at \(p=2, r=2, seed=11\).*not finite"):
            run_frequency_experiment(self.small_cfg(p_list=(2,), truth=truth))
