"""The benchmark's workloads: inputs made from a seed, calls, and their checks.

A workload makes its input sets from the seed in `setup`. One pass makes
each of the workload's calls into gpca once, on one input set; a round is
one pass over every input set. Every call is checked on its own and counts
as one attempted operation. Calls receive only the generated inputs; the
ground truth stays here for the checks and for the quality metrics.

The subspaces of `segment-highM` and `cli-files` come from a fixed pool,
the same for every seed; the points on them and their noise come from
--seed. gpca's wrong-nullity fault follows the subspaces: about one random
arrangement in 3000 shows it, and on such an arrangement it shows for most
point draws. Subspaces drawn from the seed would make a run's failed share
depend on the seed; with a fixed pool it does not, and a change that makes
the fault more frequent shows on the pool's arrangements in every run.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import gpca
from gpca import cli, experiment, segmentation
from gpca.motion import synthetic_translations
from gpca.synthgen import ArrangementSpec, generate, generate_from_bases


@dataclass
class Outcome:
    """Check result of one call: problems, plus quality values when it passed."""

    problems: list[str]
    angles_deg: list[tuple[str, float]] = field(default_factory=list)  # (kind, degrees)
    accuracies_pct: list[float] = field(default_factory=list)


# Root of the subspace pool; the first arrangements it gives are used as
# they come, none is left out.
GEOMETRY_SEED = 0


def _seeds(seed, *key, count=1):
    state = np.random.SeedSequence(seed, spawn_key=key).generate_state(count)
    return [int(s) for s in state]


def _arrangement(D, dims, per, sigma, seed, *key):
    """Points from `seed` on pool arrangement `key`; returns (X, models, labels).

    The subspaces are those `generate` draws for the pool seed of `key`.
    """
    spec = ArrangementSpec(D, dims, 1, 0.0, _seeds(GEOMETRY_SEED, *key)[0])
    spans = [_span(m.complement_basis) for m in generate(spec)[1]]
    return generate_from_bases(spans, per, sigma, seed=_seeds(seed, *key)[0])


def _span(complement):
    """Orthonormal basis of the orthogonal complement of `complement`'s columns."""
    u = np.linalg.svd(complement, full_matrices=True)[0]
    return u[:, complement.shape[1]:]


def _quality(kind, true_models, labels, true_labels, est_bases):
    """Angle error and labelling accuracy as the program's own metrics define them."""
    n = len(true_models)
    return (
        [(kind, gpca.angle_error(true_models, est_bases))],
        [100.0 * gpca.matched_accuracy(true_labels, labels, size=n)],
    )


class SegmentHighM:
    """`segment(X, n)` on hyperplane arrangements with M from 126 to 330."""

    name = "segment-highM"
    SIGMA = 0.01
    MIX = ((6, 4, 1200), (8, 4, 1200), (10, 3, 900))  # (D, n, N)
    ROUND = 24
    known_faults = ()

    def __init__(self, seed, workdir):
        self.seed = seed

    def setup(self):
        self.pool = [
            [
                (n,) + _arrangement(D, (D - 1,) * n, N // n, self.SIGMA, self.seed, k, j)
                for j, (D, n, N) in enumerate(self.MIX)
            ]
            for k in range(self.ROUND)
        ]

    def calls(self, k):
        return [
            (f"segment-D{X.shape[1]}", lambda X=X, n=n: segmentation.segment(X, n))
            for n, X, _, _ in self.pool[k]
        ]

    def check(self, k, index, seg):
        n, X, true_models, true_labels = self.pool[k][index]
        bases = [m.complement_basis for m in seg.models]
        problems = checks.check_segmentation(
            X,
            seg.labels,
            bases,
            seg.dims,
            [m.complement_basis for m in true_models],
            self.SIGMA,
        )
        if problems:
            return Outcome(problems)
        return Outcome([], *_quality(f"D{X.shape[1]}", true_models, seg.labels, true_labels, bases))


class SweepLowD:
    """`run_experiment` over the full roster, one trial per call."""

    name = "sweep-lowD"
    ROSTER = ("gpca", "ksub", "em", "gpca+ksub", "gpca+em", "gpca+ksub+em")
    # sigma = 0 is left out: gpca misfits about one exact arrangement in 300
    # (see the README), and a failure that comes and goes with the seed
    # would make the failed share differ from run to run.
    NOISE = (0.01, 0.02)
    # Every input set draws new subspaces, so every one is a fresh chance
    # for a rare fault; 36 sets kept the quality spreads under 0.07.
    ROUND = 36
    known_faults = ()

    def __init__(self, seed, workdir):
        self.seed = seed

    def setup(self):
        self.pool = [
            experiment.ExperimentConfig(
                algorithms=self.ROSTER,
                noise_grid=self.NOISE,
                trials=1,
                n=4,
                ambient_dim=3,
                points_per_subspace=200,
                seed=_seeds(self.seed, k)[0],
            )
            for k in range(self.ROUND)
        ]

    def calls(self, k):
        config = self.pool[k]
        return [("run_experiment", lambda: experiment.run_experiment(config))]

    def check(self, k, index, rows):
        problems = checks.check_sweep_rows(rows, self.ROSTER, self.NOISE)
        if problems:
            return Outcome(problems)
        trial = [r for r in rows if r.kind == "trial"]
        return Outcome(
            [],
            [(r.algorithm, r.error_degrees) for r in trial],
            [r.classification_pct for r in trial],
        )


def _write_csv(path, rows):
    with open(path, "w") as fh:
        fh.writelines(",".join(repr(float(v)) for v in row) + "\n" for row in rows)


class CliFiles:
    """`gpca.cli.main` in-process on CSV files written during set-up."""

    name = "cli-files"
    SIGMA = 0.01
    PIXEL_NOISE = 0.5
    FOCAL = 500.0
    ROUND = 72
    OUTLIERS = 40
    # Three calls run on fixed inputs, whatever --seed is, on which a fault
    # of gpca makes them fail (see the README). `segment --outliers` fails
    # on every input tried: the chi2 rule flags about a fifth of the
    # inliers. `discover` on mixed dims finds one subspace too many, and
    # epipolar `motion` puts an epipole tens of degrees off, on a few seeded
    # inputs in a thousand. Seeded, those two would fail on some seeds only;
    # fixed, all three fail in every pass, so three calls in five fail in
    # every run and a fix shows in `failed`.
    OUTLIER_INPUT_SEED = 20240
    DISCOVER_INPUT_SEED = 1
    MOTION_INPUT_SEED = 2502996818
    known_faults = ("segment-outliers", "discover", "motion")

    def __init__(self, seed, workdir):
        self.seed = seed
        self.dir = Path(workdir)

    def setup(self):
        self.schema = self._schema_validator()
        self.out = self.dir / "out"
        self.out.mkdir(parents=True)
        self.fixed = self._fixed_inputs(self.dir)
        self.pool = [self._inputs(self.dir / f"in{k}", k) for k in range(self.ROUND)]

    @staticmethod
    def _schema_validator():
        import jsonschema

        schema_path = Path(gpca.__file__).parent / "schemas" / "report.schema.json"
        return jsonschema.Draft202012Validator(json.loads(schema_path.read_text()))

    def _inputs(self, folder, k):
        folder.mkdir()
        seg = _arrangement(5, (4, 4, 4, 4), 200, self.SIGMA, self.seed, k, 0)
        eq = _arrangement(5, (2, 2, 2), 100, 0.0, self.seed, k, 1)
        _write_csv(folder / "seg.csv", seg[0])
        _write_csv(folder / "eq.csv", eq[0])
        return {"folder": folder, "segment": seg, "discover-equal-dim": (2, 2, 2)}

    def _fixed_inputs(self, folder):
        s_seg, s_out = _seeds(self.OUTLIER_INPUT_SEED, count=2)
        X, models, labels = generate(ArrangementSpec(5, (4, 4, 4, 4), 200, self.SIGMA, s_seg))
        extra = np.random.default_rng(s_out).uniform(-1.0, 1.0, size=(self.OUTLIERS, 5))
        _write_csv(folder / "outliers.csv", np.vstack([X, extra]))
        disc = generate(ArrangementSpec(5, (1, 2, 3), 100, 0.0, self.DISCOVER_INPUT_SEED))
        _write_csv(folder / "disc.csv", disc[0])
        corr, epipoles, motion_labels = synthetic_translations(
            2, 100, self.PIXEL_NOISE, self.MOTION_INPUT_SEED, self.FOCAL
        )
        _write_csv(folder / "corr.csv", corr)
        # synthetic_translations gives epipoles in pixel-homogeneous
        # coordinates; with --focal the CLI works on rays x / focal.
        rays = epipoles / np.array([self.FOCAL, self.FOCAL, 1.0])
        rays /= np.linalg.norm(rays, axis=1, keepdims=True)
        return {
            "folder": folder,
            "discover": (1, 2, 3),
            "motion": (corr, rays, motion_labels),
            "segment-outliers": (X, models, labels),
            "injected": range(X.shape[0], X.shape[0] + self.OUTLIERS),
        }

    def _argv(self, k):
        d = self.pool[k]["folder"]
        f = self.fixed["folder"]
        out = self.out
        return [
            ("segment", ["segment", "--data", f"{d}/seg.csv", "--n", "4",
                         "--out", f"{out}/seg.json"]),
            ("segment-outliers", ["segment", "--data", f"{f}/outliers.csv", "--n", "4",
                                  "--outliers", "chi2:0.999", "--out", f"{out}/outliers.json"]),
            ("discover", ["discover", "--data", f"{f}/disc.csv", "--n-max", "4",
                          "--out", f"{out}/disc.txt"]),
            ("discover-equal-dim", ["discover", "--data", f"{d}/eq.csv", "--n-max", "4",
                                    "--equal-dim", "--out", f"{out}/eq.txt"]),
            ("motion", ["motion", "--mode", "epipolar", "--input", f"{f}/corr.csv",
                        "--n", "2", "--focal", str(self.FOCAL), "--out", f"{out}/motion.json"]),
        ]

    def calls(self, k):
        return [(name, lambda argv=argv: self._main(argv)) for name, argv in self._argv(k)]

    @staticmethod
    def _main(argv):
        # The CLI reports errors on stderr; keep them off the benchmark's output.
        with contextlib.redirect_stderr(io.StringIO()):
            return cli.main(argv)

    def check(self, k, index, code):
        name, argv = self._argv(k)[index]
        truth = {**self.fixed, **self.pool[k]}
        problems = checks.check_exit(code)
        if problems:
            return Outcome(problems)
        out_path = argv[argv.index("--out") + 1]
        if name.startswith("discover"):
            return Outcome(checks.check_discover_text(Path(out_path).read_text(), truth[name]))
        try:
            report = json.loads(Path(out_path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            return Outcome([f"{out_path}: {exc}"])
        problems = checks.schema_problems(report, self.schema)
        if problems:
            return Outcome(problems)
        labels = np.asarray(report["labels"])
        bases = [np.asarray(m["complement_basis"]) for m in report["models"]]
        if name == "motion":
            corr, rays, true_labels = truth[name]
            if labels.size != corr.shape[0]:
                return Outcome([f"{labels.size} labels for {corr.shape[0]} CSV rows"])
            problems = checks.check_epipoles(report.get("epipoles", []), rays, self.PIXEL_NOISE)
            kept = labels >= 0
            lines = checks.epipolar_lines(corr[kept] / self.FOCAL)
            problems += checks.nearest_label_problems(lines, bases, labels[kept])
            if problems:
                return Outcome(problems)
            return Outcome(
                [], *_quality(name, [e.reshape(3, 1) for e in rays], labels, true_labels, bases)
            )
        X, true_models, true_labels = truth[name]
        injected = truth["injected"] if name == "segment-outliers" else range(0)
        rows = X.shape[0] + len(injected)
        if labels.size != rows:
            return Outcome([f"{labels.size} labels for {rows} CSV rows"])
        flagged = report.get("outliers", [])
        if injected:
            problems = checks.check_outlier_flags(labels, flagged, injected)
        elif flagged:
            problems = ["outliers flagged without --outliers"]
        inlier = labels[: X.shape[0]]
        kept = inlier >= 0
        problems += checks.check_segmentation(
            X[kept],
            inlier[kept],
            bases,
            report.get("dims", []),
            [m.complement_basis for m in true_models],
            self.SIGMA,
        )
        if problems:
            return Outcome(problems)
        return Outcome([], *_quality(name, true_models, inlier, true_labels, bases))


WORKLOADS = {w.name: w for w in (SegmentHighM, SweepLowD, CliFiles)}
