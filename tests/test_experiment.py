"""The sweep's roster chains: stage order, one run per prefix, and time charges."""

import numpy as np

from gpca import experiment
from gpca.baselines import em_mixture_pca, k_subspaces
from gpca.experiment import ALGORITHMS, ExperimentConfig, TrialRow, rows_to_csv, run_experiment
from gpca.metrics import matched_accuracy
from gpca.segmentation import segment
from gpca.synthgen import ArrangementSpec, angle_error, generate

ONE_CELL = ExperimentConfig(
    algorithms=ALGORITHMS, noise_grid=(0.02,), trials=1, n=3, points_per_subspace=80, seed=4
)


def _cell_points(config, sigma_index, trial):
    """The points `run_experiment` draws for one (sigma, trial) cell."""
    seed_seq = np.random.SeedSequence(config.seed, spawn_key=(sigma_index, trial))
    gen_seed = int(seed_seq.spawn(len(config.algorithms) + 1)[0].generate_state(1)[0])
    spec = ArrangementSpec(
        config.ambient_dim,
        config.dims,
        config.points_per_subspace,
        config.noise_grid[sigma_index],
        gen_seed,
    )
    return generate(spec)


def _trial_rows(rows):
    return {(r.algorithm, r.sigma, r.trial): r for r in rows if r.kind == "trial"}


class TestChains:
    def test_last_chain_runs_em_from_ksub_from_gpca(self):
        row = _trial_rows(run_experiment(ONE_CELL))["gpca+ksub+em", 0.02, 0]
        X, models, labels = _cell_points(ONE_CELL, 0, 0)
        n, dims = ONE_CELL.n, ONE_CELL.dims
        mid, _ = k_subspaces(X, dims, init_models=segment(X, n).models)
        seg, _, iterations = em_mixture_pca(X, dims, init_models=mid.models)
        assert row.status == "ok"
        assert row.error_degrees == angle_error(models, seg.models)
        assert row.classification_pct == 100.0 * matched_accuracy(labels, seg.labels, size=n)
        assert row.iterations == iterations

    def test_each_prefix_runs_once_per_cell(self, monkeypatch):
        calls = {"segment": 0, "k_subspaces": 0, "em_mixture_pca": 0}

        def counted(name):
            inner = getattr(experiment, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(experiment, name, counted(name))
        run_experiment(ONE_CELL)
        assert calls == {"segment": 1, "k_subspaces": 2, "em_mixture_pca": 3}

    def test_chain_is_charged_its_prefix_time(self):
        config = ExperimentConfig(
            algorithms=tuple(reversed(ALGORITHMS)),
            noise_grid=(0.0, 0.02),
            trials=2,
            n=2,
            points_per_subspace=60,
            seed=5,
        )
        rows = _trial_rows(run_experiment(config))
        for sigma in config.noise_grid:
            for trial in range(config.trials):
                for name in ALGORITHMS:
                    prefix = name.rpartition("+")[0]
                    if prefix:
                        chain, head = rows[name, sigma, trial], rows[prefix, sigma, trial]
                        assert chain.wall_time_s >= head.wall_time_s

    def test_failed_gpca_fails_every_chain_from_it(self):
        config = ExperimentConfig(
            algorithms=ALGORITHMS,
            noise_grid=(0.01,),
            trials=2,
            n=3,
            ambient_dim=6,
            dims=(2, 2, 2),
            points_per_subspace=60,
            seed=11,
        )
        rows = _trial_rows(run_experiment(config))
        for trial in range(config.trials):
            gpca = rows["gpca", 0.01, trial]
            assert gpca.status.startswith("failed: ")
            for name in ALGORITHMS:
                row = rows[name, 0.01, trial]
                if name.startswith("gpca"):
                    assert (row.status, row.iterations) == (gpca.status, None)
                else:
                    assert row.status == "ok"


class TestCsv:
    def test_columns_follow_the_row_fields(self):
        row = TrialRow("trial", "gpca", 0.5, 2, None, None, None, 1.25, "failed: a, b")
        header, line = rows_to_csv([row]).splitlines()
        assert header.split(",") == [
            "kind",
            "algorithm",
            "sigma",
            "trial",
            "error_degrees",
            "classification_pct",
            "iterations",
            "wall_time_s",
            "status",
        ]
        assert line == "trial,gpca,0.5,2,,,,1.25,failed: a; b"
