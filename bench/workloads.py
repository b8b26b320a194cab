"""The benchmark's workloads: set-up, the measured closed loop and the
correctness checks of each.

Every driver calls the program through module attributes (``loop.X``,
``model.X``, ``T.X``) so that the tracer's wrappers, when installed, see
each call. The drivers add nothing to the computation: ``Trainer.step`` is
``loop.train``'s step and ``evaluate`` is ``querymix eval``'s call, which
tests/test_fidelity.py checks bit for bit.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import resource
import statistics
import time
from collections import Counter
from pathlib import Path

import numpy as np

from querymix import model, nn, scenes
from querymix import tensor as T
from querymix.errors import NumericalError
from querymix.harness import loop
from querymix.harness.config import RunConfig
from querymix.scenes import BenchmarkParams
from querymix.tensor import Tensor

FIXTURE_DIR = Path(__file__).resolve().parent / "fixture"

SETUP_ROUNDS = 3        # set-up is repeated and its median reported
WARMUP_STEPS = 40       # untimed train steps: the heap grows over the first ~2 gen-2 cycles
LOSS_WINDOW = (30, 40)  # train_loss_end = mean loss of steps 31..40 of a run
EVAL_WORKERS = 2
EVAL_SCENES = 500
MIN_PASSES = 3
MIN_SAMPLES = 100       # steps or chunks: p90 needs at least ten samples beyond it

# Reference tolerances of the quality guards. train_loss_end over seeds
# 0..9 at the commit that added the benchmark: beta=1 16.04..17.21, beta=0
# 9.05..9.80; eval_map of the fixture on 500-scene val sets over seeds 0..9:
# 0.1445..0.1595. The bands widen those ranges; a change that breaks
# learning or scoring leaves them.
LOSS_BANDS = {1.0: (15.0, 18.5), 0.0: (8.4, 10.5)}
EVAL_MAP_BAND = (0.12, 0.18)
REFERENCE_MAP_TOL = 2e-3   # fixture mAP on its own val set, against fixture.json

WORKLOADS = {
    "train_dynamic": {"kind": "train", "beta": 1.0},
    "train_dynamic_beta0": {"kind": "train", "beta": 0.0},
    "eval_dynamic": {"kind": "eval"},
}


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def p90(values) -> float:
    """The 90th percentile by statistics.quantiles' exclusive method."""
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Checks:
    """Correctness gates; each failure counts as a failed operation."""

    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []

    def add(self, name: str, ok: bool, detail: str = "") -> bool:
        self.results.append((name, bool(ok), detail))
        return bool(ok)

    @property
    def failed(self) -> int:
        return sum(not ok for _, ok, _ in self.results)


def roundtrip_check(checks: Checks, detector, workdir: Path) -> None:
    """save_checkpoint -> load_checkpoint -> save_checkpoint is byte-identical."""
    first, second = workdir / "roundtrip_a.ckpt", workdir / "roundtrip_b.ckpt"
    model.save_checkpoint(detector, first)
    model.save_checkpoint(model.load_checkpoint(first), second)
    checks.add("checkpoint_roundtrip", first.read_bytes() == second.read_bytes())
    first.unlink()
    second.unlink()


# ---------------------------------------------------------------------------
# training


def train_config(seed: int, beta: float) -> RunConfig:
    """The default benchmark config; the seed drives data and initialisation."""
    cfg = RunConfig(seed=seed, beta=beta)
    cfg.data.data_seed = seed
    return cfg.validate()


class Trainer:
    """loop.train's step sequence (per-epoch permutation, training_loss,
    backward, clip_global_norm, Adam.step) without its per-epoch
    validation pass, which touches neither parameters nor RNG."""

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        params = cfg.benchmark_params()
        self.scenes = scenes.generate_dataset(params, cfg.data.train_scenes, cfg.data.data_seed)
        self.images = loop.render_all(self.scenes, params)
        self.detector = model.Detector(cfg.model, seed=cfg.seed)
        self.opt = nn.Adam(self.detector.parameters(), lr=cfg.optimizer.learning_rate,
                           weight_decay=cfg.optimizer.weight_decay)
        self.rng = np.random.default_rng(cfg.seed)
        self.epoch = 0
        self.batches = iter(())

    def _next_batch(self) -> np.ndarray:
        idx = next(self.batches, None)
        if idx is None:
            self.epoch += 1
            if self.epoch == self.cfg.lr_drop() + 1:
                self.opt.lr *= 0.1
            order = self.rng.permutation(len(self.scenes))
            batch = self.cfg.schedule.batch_size
            self.batches = (order[lo:lo + batch] for lo in range(0, len(order), batch))
            idx = next(self.batches)
        return idx

    def step(self) -> float:
        """One optimisation step; returns the loss. A non-finite loss raises
        before the update, as in loop.train."""
        idx = self._next_batch()
        gts = [self.scenes[i] for i in idx]
        loss = loop.training_loss(self.detector, Tensor(self.images[idx]), gts, self.cfg.beta)
        value = loss.item()
        if not np.isfinite(value):
            raise NumericalError(f"non-finite loss {value} at epoch {self.epoch}")
        try:
            T.backward(loss)
            nn.clip_global_norm(self.opt.params, self.cfg.optimizer.grad_clip)
            self.opt.step()
        finally:
            self.opt.zero_grads()
        return value


# ---------------------------------------------------------------------------
# evaluation


def fixture() -> dict:
    return json.loads((FIXTURE_DIR / "fixture.json").read_text())


def eval_params(detector) -> BenchmarkParams:
    """What ``querymix eval`` uses when no --config is given."""
    return BenchmarkParams(num_classes=detector.config.num_classes,
                           image_size=detector.config.image_size)


def evaluate(detector, val, params, workers: int = EVAL_WORKERS):
    """``querymix eval``'s call: rendering, chunked forward_infer under
    no_grad, extract_detections and COCO mAP."""
    return loop.evaluate_model(detector, val, params, workers=workers)


def setup_eval(seed: int, workdir: Path, checks: Checks):
    """Write and read back the seeded val file, load the fixture checkpoint
    and render the val images the latency sweep feeds to forward_infer."""
    fix = fixture()
    ckpt = FIXTURE_DIR / fix["checkpoint"]
    checks.add("fixture_sha256", sha256(ckpt) == fix["sha256"], str(ckpt.name))
    detector = model.load_checkpoint(ckpt)
    params = eval_params(detector)
    path = workdir / f"val_{seed}.scenes"
    scenes.write_dataset(scenes.generate_dataset(params, EVAL_SCENES, seed), path)
    val = scenes.read_dataset(path)
    path.unlink()
    return detector, val, params, loop.render_all(val, params)


def report_equal(a, b) -> bool:
    return (a.mean_ap == b.mean_ap and a.per_threshold == b.per_threshold
            and a.per_class == b.per_class)


# ---------------------------------------------------------------------------
# measured runs


class Run:
    """One workload run: set-up rounds, the measured closed loop (untraced,
    then traced when asked), the checks, and the figures they give."""

    def __init__(self, name: str, seed: int, seconds: float, tracer, workdir: Path):
        self.name, self.spec = name, WORKLOADS[name]
        self.seed, self.seconds, self.tracer, self.workdir = seed, seconds, tracer, workdir
        self.checks = Checks()
        self.ops = Counter()             # operations attempted, per kind
        self.op_errors: list[str] = []   # one entry per failed operation
        self.figures: dict[str, tuple[float, str, int]] = {}   # name -> (value, unit, samples)
        self.overhead: float | None = None

    @property
    def attempted(self) -> int:
        return sum(self.ops.values()) + len(self.checks.results)

    @property
    def failed(self) -> int:
        return len(self.op_errors) + self.checks.failed

    # helpers ----------------------------------------------------------

    def _traced(self):
        """The tracer installed for the block, when tracing."""
        return self.tracer if self.tracer is not None else contextlib.nullcontext()

    def _op(self, kind: str, op, durations: list):
        """One timed operation; its time goes to ``durations``. A failure
        is counted, not raised, and returns None."""
        if self.tracer is not None:
            self.tracer.unit = f"{kind}:{self.ops[kind]}"
        self.ops[kind] += 1
        start = time.perf_counter()
        try:
            result = op()
        except Exception as err:
            self.op_errors.append(f"{kind}: {type(err).__name__}: {err}")
            return None
        durations.append(time.perf_counter() - start)
        return result

    def _setup(self, make):
        """Run ``make`` SETUP_ROUNDS times and keep the last result; returns
        (result, median seconds)."""
        times, result = [], None
        with self._traced():
            for _ in range(SETUP_ROUNDS):
                result = None  # release the previous round before building the next
                result = self._op("setup", make, times)
        if result is None:
            raise RuntimeError(f"set-up failed: {self.op_errors[-1]}")
        return result, statistics.median(times)

    def _phases(self, cycle, done) -> None:
        """Closed loop over ``cycle(traced)`` for the run's seconds and until
        ``done()``. With --trace 1 that is the untraced half, followed by a
        traced half with the tracer installed."""
        untraced_s = self.seconds if self.tracer is None else self.seconds / 2
        deadline = time.perf_counter() + untraced_s
        while not done() or time.perf_counter() < deadline:
            cycle(False)
        if self.tracer is not None:
            deadline = time.perf_counter() + self.seconds / 2
            with self.tracer:
                while time.perf_counter() < deadline:
                    cycle(True)

    def _overhead(self, durations: dict) -> None:
        if durations[False] and durations[True]:
            self.overhead = (statistics.median(durations[True])
                             / statistics.median(durations[False]) - 1.0)

    def _add(self, name: str, value: float, unit: str, samples: int) -> None:
        self.figures[name] = (float(value), unit, samples)

    def _checks(self, fn) -> None:
        with self._traced():
            if self.tracer is not None:
                self.tracer.unit = "check"
            try:
                fn()
            except Exception as err:
                self.checks.add("checks_error", False, f"{type(err).__name__}: {err}")

    # workloads --------------------------------------------------------

    def run(self) -> "Run":
        if self.spec["kind"] == "train":
            self._train()
        else:
            self._eval()
        self._add("peak_rss_mb", peak_rss_mb(), "MB", 1)
        self._add("error_rate", self.failed / self.attempted, "ratio", self.attempted)
        return self

    def _train(self) -> None:
        cfg = train_config(self.seed, self.spec["beta"])
        trainer, setup_s = self._setup(lambda: Trainer(cfg))
        self._add("setup_s", setup_s, "s", SETUP_ROUNDS)
        losses = [self._op("warmup", trainer.step, []) for _ in range(WARMUP_STEPS)]
        steps = {False: [], True: []}

        def cycle(traced):
            value = self._op("step", trainer.step, steps[traced])
            if not traced:
                losses.append(value)

        self._phases(cycle, lambda: len(steps[False]) >= MIN_SAMPLES
                     and len(losses) >= LOSS_WINDOW[1])
        self._overhead(steps)
        timed = steps[False]
        batch = cfg.schedule.batch_size
        self._add("train_samples_per_s", batch * len(timed) / sum(timed), "1/s", len(timed))
        self._add("step_p50_ms", statistics.median(timed) * 1e3, "ms", len(timed))
        self._add("step_p90_ms", p90(timed) * 1e3, "ms", len(timed))
        window = losses[LOSS_WINDOW[0]:LOSS_WINDOW[1]]
        if None in window:
            self.checks.add("train_loss_end_band", False, "a step of the loss window failed")
        else:
            loss_end = float(np.mean(window))
            self._add("train_loss_end", loss_end, "loss", len(window))
            band = LOSS_BANDS[self.spec["beta"]]
            self.checks.add("train_loss_end_band", band[0] <= loss_end <= band[1],
                            f"{loss_end:.6f} not in {band}")
        self._checks(lambda: roundtrip_check(self.checks, trainer.detector, self.workdir))

    def _eval(self) -> None:
        (detector, val, params, images), setup_s = self._setup(
            lambda: setup_eval(self.seed, self.workdir, self.checks))
        self._add("setup_s", setup_s, "s", SETUP_ROUNDS)
        chunks = [images[lo:lo + loop.EVAL_CHUNK] for lo in range(0, len(val), loop.EVAL_CHUNK)]
        passes, latencies, reports = {False: [], True: []}, [], []

        def cycle(traced):
            """One full pass, then (untraced) forward_infer over every chunk
            on its own, so both figures sample the whole run."""
            report = self._op("pass", lambda: evaluate(detector, val, params), passes[traced])
            if report is not None:
                reports.append(report)
            if not traced:
                for chunk in chunks:
                    self._op("chunk", lambda: detector.forward_infer(Tensor(chunk)), latencies)

        self._phases(cycle, lambda: len(passes[False]) >= MIN_PASSES
                     and len(latencies) >= MIN_SAMPLES)
        self._overhead(passes)
        timed = passes[False]
        self._add("eval_scenes_per_s", len(val) / statistics.median(timed), "1/s", len(timed))
        self._add("infer_p50_ms", statistics.median(latencies) * 1e3, "ms", len(latencies))
        self._add("infer_p90_ms", p90(latencies) * 1e3, "ms", len(latencies))
        first = reports[0]
        self._add("eval_map", first.mean_ap, "mAP", len(reports))
        self.checks.add("passes_identical", all(report_equal(first, r) for r in reports))
        self.checks.add("eval_map_band", EVAL_MAP_BAND[0] <= first.mean_ap <= EVAL_MAP_BAND[1],
                        f"{first.mean_ap:.6f} not in {EVAL_MAP_BAND}")

        def checks():
            serial = evaluate(detector, val, params, workers=1)
            self.checks.add("workers_1_equals_2", report_equal(serial, first))
            fix = fixture()
            ref_val = scenes.generate_dataset(params, fix["val_scenes"], fix["val_data_seed"])
            ref = evaluate(detector, ref_val, params)
            self.checks.add("fixture_reference_map",
                            abs(ref.mean_ap - fix["eval_map"]) <= REFERENCE_MAP_TOL,
                            f"{ref.mean_ap:.6f} vs {fix['eval_map']:.6f}")
            roundtrip_check(self.checks, detector, self.workdir)
        self._checks(checks)
