"""The four benchmark workloads and the oracles that check their outputs.

Each workload runs in rounds.  A round sets up from the generated inputs
(timed as set-up), runs the job a user waits for (timed), then checks the
outputs against an oracle owned by the benchmark (untimed).  Every call
goes to sshnet's public functions on the default single-thread path: no
``threads`` argument, no ``SSHNET_THREADS``.
"""
from __future__ import annotations

import contextlib
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from sshnet import checks, featureio, model, objective, retrieval
from sshnet.config import FULL_MODEL

TRAIN_BATCH = 8              # the small full-preset batch of the baseline
TRAIN_EPOCHS = 2             # per round; each round is a fresh train() call
GRADCHECK_SAMPLE = 40        # coordinates per parameter tensor
QUERY_TOP_K = 10
FOLDS = 5
UNIT_TOL = 1e-9              # |norm - 1| allowed for a unit embedding row
SIM_TOL = 1e-12              # |similarity - oracle dot| allowed
CHECK_ROWS = 8               # sampled query rows per direction per check


@dataclass
class Round:
    setup_s: float           # load and prepare, before the job
    job_s: float             # the job a user waits for
    rates: list              # items per second, one or more samples
    attempted: int
    failed: int
    named: dict = field(default_factory=dict)   # per-round raw figures


class Workload:
    name = ""
    boundaries: tuple = ()   # span names that end one traced operation
    checked = ""             # unit of output the oracle checks

    def __init__(self, inputs: Path, seed: int):
        self.inputs = Path(inputs)
        self.seed = seed
        # oracles that call sshnet run inside this, so a tracer can skip them
        self.untraced = contextlib.nullcontext

    def round(self, index: int) -> Round:
        raise NotImplementedError

    def named(self, rounds: list[Round]) -> list[tuple[str, float, str]]:
        """The workload's own end-to-end figures as (name, value, unit)."""
        raise NotImplementedError


def _median(values) -> float:
    return float(statistics.median(values))


class TrainFull(Workload):
    name = "train-full"
    boundaries = ("objective.adamw_step",)
    checked = "epochs"

    def __init__(self, inputs, seed):
        super().__init__(inputs, seed)
        self.manifest = self.inputs / "data" / "manifest.json"
        self.first_curve = None

    def round(self, index):
        ends = []

        def on_epoch(epoch, mean_loss, params):
            ends.append(perf_counter())
            return False

        t0 = perf_counter()
        bundles, texts, manifest = featureio.load_dataset(self.manifest)
        t1 = perf_counter()
        res = objective.train(bundles, texts, manifest.dims, FULL_MODEL,
                              objective.TrainConfig(batch_size=TRAIN_BATCH,
                                                    epochs=TRAIN_EPOCHS,
                                                    seed=self.seed),
                              epoch_callback=on_epoch)
        # train() starts its clock after its own set-up (prepare_image)
        loop_start = ends[-1] - res.elapsed_s
        n = len(bundles)
        # train() skips a trailing batch of one pair: it has no negative
        pairs = n - (n % TRAIN_BATCH == 1)
        # oracle: finite losses, and the same seed gives the same losses
        curve = list(res.loss_curve)
        if self.first_curve is None:
            self.first_curve = curve
        failed = sum(1 for got, want in zip(curve, self.first_curve)
                     if not (math.isfinite(got) and got == want))
        failed += abs(len(curve) - len(self.first_curve))
        return Round(setup_s=loop_start - t0, job_s=res.elapsed_s,
                     rates=[pairs / dt for dt in np.diff([loop_start] + ends)],
                     attempted=max(len(curve), len(self.first_curve)),
                     failed=failed, named={"loss": curve[-1]})

    def named(self, rounds):
        return [("train_pairs_per_s", _median(x for r in rounds for x in r.rates), "pairs/s"),
                ("train_loss_final", rounds[-1].named["loss"], "loss")]


class EmbedFull(Workload):
    name = "embed-full"
    boundaries = ("model.visual_forward", "model.text_forward")
    checked = "images"

    def round(self, index):
        t0 = perf_counter()
        params, cfg, dims, _ = model.load_checkpoint(self.inputs / "ckpt")
        bundles, texts, _ = featureio.load_dataset(
            self.inputs / "data" / "manifest.json")
        t1 = perf_counter()
        table = model.embed_dataset(bundles, texts, params, cfg, dims, mode="region")
        t2 = perf_counter()
        sim = retrieval.similarity_matrix(table.image_embs, table.text_embs)
        report = retrieval.evaluate(sim, table.image_index)
        t3 = perf_counter()
        # oracle: every image row and each of its captions' rows is a
        # finite unit vector
        img_ok = _unit_rows(table.image_embs)
        txt_ok = _unit_rows(table.text_embs)
        n = len(bundles)
        caption_ok = np.ones(n, dtype=bool)
        np.logical_and.at(caption_ok, table.image_index, txt_ok)
        bad = int(np.count_nonzero(~(img_ok & caption_ok)))
        return Round(setup_s=t1 - t0, job_s=t3 - t1, rates=[n / (t2 - t1)],
                     attempted=n, failed=bad, named={"rsum": report.rsum})

    def named(self, rounds):
        return [("embed_images_per_s", _median(r.rates[0] for r in rounds), "images/s"),
                ("embed_rsum", rounds[-1].named["rsum"], "rsum")]


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    """True for each finite unit-norm row (a NaN or inf norm compares False)."""
    return np.abs(np.linalg.norm(rows, axis=1) - 1.0) <= UNIT_TOL


class QueryTable(Workload):
    name = "query-table"
    boundaries = ("retrieval.similarity_matrix", "retrieval.evaluate",
                  "retrieval.ensemble_eval", "retrieval.bench_kpps")
    checked = "retrieval calls"
    tables = ("img_a", "txt_a", "img_b", "txt_b", "queries", "caption_image")

    def round(self, index):
        t0 = perf_counter()
        t = {k: featureio.read_tensor(self.inputs / (k + ".3sht")) for k in self.tables}
        t1 = perf_counter()
        image_index = t["caption_image"].astype(np.int64)
        marks = [perf_counter()]
        sim_a = retrieval.similarity_matrix(t["img_a"], t["txt_a"])
        marks.append(perf_counter())
        sim_b = retrieval.similarity_matrix(t["img_b"], t["txt_b"])
        marks.append(perf_counter())
        report = retrieval.evaluate(sim_a, image_index)
        marks.append(perf_counter())
        folds = retrieval.fivefold_eval(sim_a, image_index, folds=FOLDS)
        marks.append(perf_counter())
        fused = retrieval.ensemble_eval(sim_a, sim_b, image_index)
        marks.append(perf_counter())
        bench = retrieval.bench_kpps(t["img_a"], t["queries"], "precomputed",
                                     top_k=QUERY_TOP_K)
        marks.append(perf_counter())
        sim_s, _, eval_s, fold_s, ens_s, _ = np.diff(marks)

        rng = np.random.default_rng([self.seed, index])
        with self.untraced():
            verdicts = [
                _check_similarity(sim_a, t["img_a"], t["txt_a"], rng),
                _check_similarity(sim_b, t["img_b"], t["txt_b"], rng),
                report.recalls() == _oracle_recalls(sim_a, image_index),
                np.allclose(folds.recalls(), _oracle_folds(sim_a, image_index),
                            rtol=0.0, atol=1e-9),
                _check_ensemble(sim_a, sim_b, fused, rng),
                bench.n_queries == t["queries"].shape[0]
                and all(math.isfinite(k) and k > 0 for k in bench.trial_kpps),
            ]
        pairs = sim_a.size
        return Round(setup_s=t1 - t0, job_s=marks[-1] - marks[0],
                     rates=[1000.0 * k for k in bench.trial_kpps],
                     attempted=len(verdicts),
                     failed=sum(1 for ok in verdicts if not ok),
                     named={"pairs": pairs, "rank_s": sim_s + eval_s + fold_s,
                            "ensemble_s": ens_s, "kpps": list(bench.trial_kpps),
                            "rsum": report.rsum})

    def named(self, rounds):
        pairs = rounds[0].named["pairs"]
        return [
            ("query_kpps", _median(k for r in rounds for k in r.named["kpps"]), "Kpps"),
            ("rank_mpairs_per_s",
             pairs / 1e6 / _median(r.named["rank_s"] for r in rounds), "Mpairs/s"),
            ("ensemble_mpairs_per_s",
             pairs / 1e6 / _median(r.named["ensemble_s"] for r in rounds), "Mpairs/s"),
        ]


def _stable_top(scores, k: int) -> list[int]:
    """Best-first candidates; equal scores go to the lower index."""
    return sorted(range(len(scores)), key=lambda c: (-scores[c], c))[:k]


def _check_similarity(sim, img, txt, rng) -> bool:
    """Sampled rows and columns equal plain dot products, and their top-k
    from ``rank_rows`` equals a stable full sort, in both directions."""
    rows = rng.choice(sim.shape[0], size=CHECK_ROWS, replace=False)
    cols = rng.choice(sim.shape[1], size=CHECK_ROWS, replace=False)
    if np.abs(sim[rows] - img[rows] @ txt.T).max() > SIM_TOL:
        return False
    if np.abs(sim[:, cols] - img @ txt[cols].T).max() > SIM_TOL:
        return False
    for block in (sim[rows], sim[:, cols].T):
        orders = retrieval.rank_rows(block)[:, :QUERY_TOP_K]
        for got, scores in zip(orders, block):
            if list(got) != _stable_top(scores.tolist(), QUERY_TOP_K):
                return False
    return True


def _rank_of(scores: np.ndarray, target: int) -> int:
    """Candidates ranked before ``target``: higher score, or equal score
    and lower index."""
    s = scores[target]
    return int(np.count_nonzero(scores > s)
               + np.count_nonzero(scores[:target] == s))


def _oracle_recalls(sim: np.ndarray, image_index: np.ndarray,
                    ks=retrieval.DEFAULT_KS) -> tuple:
    """Recall@k in both directions by counting, query by query, the
    candidates that outrank the ground truth: no sort involved."""
    n, m = sim.shape
    captions = [[] for _ in range(n)]
    for c, i in enumerate(image_index.tolist()):
        captions[i].append(c)
    i2s = [min(_rank_of(sim[i], c) for c in captions[i]) for i in range(n)]
    sim_t = np.ascontiguousarray(sim.T)
    s2i = [_rank_of(sim_t[c], i) for c, i in enumerate(image_index.tolist())]
    return tuple([100.0 * sum(r < k for r in i2s) / n for k in ks]
                 + [100.0 * sum(r < k for r in s2i) / m for k in ks])


def _oracle_folds(sim, image_index) -> list:
    size = sim.shape[0] // FOLDS
    acc = np.zeros(6)
    for f in range(FOLDS):
        lo, hi = f * size, (f + 1) * size
        mask = (image_index >= lo) & (image_index < hi)
        acc += np.asarray(_oracle_recalls(sim[lo:hi][:, mask], image_index[mask] - lo))
    return list(acc / FOLDS)


def _check_ensemble(sim_a, sim_b, fused, rng) -> bool:
    """Fused orders of sampled queries equal a mean-rank sort, and the
    fused recalls are percentages."""
    recalls = fused.recalls()
    if not all(math.isfinite(r) and 0.0 <= r <= 100.0 for r in recalls):
        return False
    rows = rng.choice(sim_a.shape[0], size=CHECK_ROWS, replace=False)
    got = retrieval.ensemble_ranks(sim_a[rows], sim_b[rows])
    for order, a, b in zip(got, sim_a[rows].tolist(), sim_b[rows].tolist()):
        m = len(a)
        rank_a, rank_b = [0] * m, [0] * m
        for pos, c in enumerate(_stable_top(a, m)):
            rank_a[c] = pos
        for pos, c in enumerate(_stable_top(b, m)):
            rank_b[c] = pos
        want = sorted(range(m), key=lambda c: (rank_a[c] + rank_b[c],
                                                -(a[c] + b[c]), c))
        if list(order) != want:
            return False
    return True


class GradcheckSmall(Workload):
    name = "gradcheck-small"
    boundaries = ("objective.triplet_loss",)
    checked = "reports"

    def __init__(self, inputs, seed):
        super().__init__(inputs, seed)
        params = model.init_params(checks.GRADCHECK_MODEL, checks.GRADCHECK_DIMS, 0)
        self.coords = sum(min(GRADCHECK_SAMPLE, t.data.size)
                          for t in params.named().values())

    def round(self, index):
        t0 = perf_counter()
        res = checks.full_loss_grad_check(seed=self.seed, sample=GRADCHECK_SAMPLE)
        wall = perf_counter() - t0
        # oracle: the finite-difference report itself
        return Round(setup_s=wall - res.elapsed_s, job_s=res.elapsed_s,
                     rates=[self.coords / res.elapsed_s], attempted=1,
                     failed=0 if res.report.passed else 1,
                     named={"max_rel_err": res.report.max_rel_err})

    def named(self, rounds):
        return [("gradcheck_coords_per_s", _median(r.rates[0] for r in rounds),
                 "coords/s")]


WORKLOADS = {w.name: w for w in (TrainFull, EmbedFull, QueryTable, GradcheckSmall)}
