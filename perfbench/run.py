"""Benchmark for m2dan: training, generate+evaluate and sweep workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload adapted --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --smoke

Each workload is a closed loop with one client in this process. The program
is imported from the checkout's `src/` and timed from outside, through the
public functions of `m2dan.data`, `tensor`, `layers`, `model`, `losses`,
`training`, `metrics` and `cli`. The seed reaches the program only as the
data seed, the model seed and the batch order. Human-readable lines come
first; the last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics` (end-to-end metrics with `--trace 0`,
per-layer metrics with `--trace 1`). See perfbench/README.md.
"""

from __future__ import annotations

import os

# pin BLAS to one thread before anything imports numpy
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import csv
import io
import json
import math
import platform
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

from calibrate import Calibrator
from spans import SpanRecorder, percentile, tail

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("adapted", "source_only", "generate_eval", "sweep_grid")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

BATCH = 12
GRID_THREADS = 2
ALPHA_GRID = ("0.0003", "0.003", "0.03", "0.3")  # the sweep CSV's value column
SWEEP_HEADER = ["value", "auc_target1", "auc_target2", "mean_auc"]
TEST_TOTALS = (2202, 526, 1824)  # full-scale test counts; 1/6 gives 367/88/304

CAL_SAMPLES = 5  # calibration samples before and after each long operation
IMPORT_SAMPLES = 5  # fresh interpreters timed for the import part of setup_s

# The final mean loss (over the last LOSS_WINDOW steps) must lie within TOL of
# REF. REF is the middle of ten-seed runs made when this benchmark was added;
# TOL also covers runs of a few hundred to a few thousand steps.
LOSS_WINDOW = 100
LOSS_REF = {"adapted": (1.30, 0.25), "source_only": (0.155, 0.10)}
AUC_TOL = 1e-9  # evaluate() against a brute-force pairwise AUC


@dataclass(frozen=True)
class Sizes:
    fraction: float  # benchmark fraction for adapted, source_only, generate_eval
    setups: int  # set-ups per run; setup_s uses their median
    cross_after: int  # steps before the first epoch boundary of a run
    min_steps: int
    min_rounds: int  # generate+evaluate rounds, or sweep grids
    fixture_fraction: float  # generate_eval trains its checkpoint on this
    fixture_steps: int
    sweep_fraction: float
    table_reps: int
    table_eval_reps: int


FULL = Sizes(fraction=1.0 / 6.0, setups=3, cross_after=100, min_steps=LOSS_WINDOW,
             min_rounds=2, fixture_fraction=0.02, fixture_steps=30, sweep_fraction=0.01,
             table_reps=15, table_eval_reps=5)
SMOKE = Sizes(fraction=0.02, setups=1, cross_after=4, min_steps=8, min_rounds=1,
              fixture_fraction=0.01, fixture_steps=3, sweep_fraction=0.005,
              table_reps=1, table_eval_reps=1)


def import_program() -> None:
    """Import m2dan from the checkout's src/, refusing to run without it."""
    src = ROOT / "src"
    if not (src / "m2dan" / "__init__.py").is_file():
        raise SystemExit(f"error: {src / 'm2dan'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(src))
    import m2dan.cli  # noqa: F401  (imports every other module)


def import_seconds(k: int) -> float:
    """Median time to import numpy and m2dan in k fresh interpreters."""
    code = ("import time; t0 = time.perf_counter(); import m2dan.cli; "
            "print(time.perf_counter() - t0)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(k):
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        times.append(float(out.stdout))
    return median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


# ------------------------------------------------------------------ one run


class Run:
    """One workload execution: inputs, counters and the numbers it reports."""

    def __init__(self, workload: str, seed: int, seconds: float, sizes: Sizes,
                 work: Path, cal: Calibrator, recorder: SpanRecorder | None = None):
        self.workload, self.seed, self.seconds, self.sizes = workload, seed, seconds, sizes
        self.work = work
        self.recorder = recorder
        self.cal = cal
        self.cal_samples: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.report: list[tuple[str, float, str, str]] = []  # name, value, unit, note
        self.metrics: dict[str, tuple[float, str]] = {}  # gated end-to-end metrics
        self.extra: dict = {}  # numbers the traced summary needs

    def fail(self, what: str) -> None:
        self.failures.append(what)

    def op(self, what: str, fn):
        """One attempted operation; an M2danError counts it as failed."""
        from m2dan.errors import M2danError

        self.attempted += 1
        try:
            return fn()
        except M2danError as e:
            self.fail(f"{what}: {type(e).__name__}: {e}")
            return None

    def check(self, what: str, fn) -> None:
        """One output check, run with tracing paused; False or an error fails it."""
        from m2dan.errors import M2danError

        self.attempted += 1
        paused = self.recorder.paused() if self.recorder else contextlib.nullcontext()
        try:
            with paused:
                ok = fn()
        except M2danError as e:
            ok, what = False, f"{what}: {type(e).__name__}: {e}"
        if not ok:
            self.fail(what)

    def calibrate(self, k: int = 1) -> None:
        self.cal_samples.extend(self.cal.sample() for _ in range(k))

    def timed(self, what: str, fn):
        """Run one long operation between calibration samples; return
        (result or None, wall seconds)."""
        self.calibrate(CAL_SAMPLES)
        t0 = time.perf_counter()
        result = self.op(what, fn)
        dt = time.perf_counter() - t0
        self.calibrate(CAL_SAMPLES)
        return result, dt

    def cost(self, op_seconds: list[float]) -> None:
        """op_cost_p50: the median operation time over the median time of
        the calibration samples taken between operations in this run."""
        self.metrics["op_cost_p50"] = (median(op_seconds) / median(self.cal_samples), "cal")

    def setup(self, fn):
        """Run fn sizes.setups times; setup_s is the median import time plus
        the median of these set-ups."""
        times, result = [], None
        for _ in range(self.sizes.setups):
            result = None  # free the previous set-up before building the next
            t0 = time.perf_counter()
            result = fn()
            times.append(time.perf_counter() - t0)
        self.metrics["setup_s"] = (import_seconds(IMPORT_SAMPLES) + median(times), "s")
        return result

    def note(self, name: str, value: float, unit: str, extra: str = "") -> None:
        self.report.append((name, value, unit, extra))


# ------------------------------------------------------------------ training


def steps_per_epoch(bench, adapted: bool) -> int:
    domains = range(bench.num_domains) if adapted else (0,)
    per = BATCH // len(domains)
    return max(len(bench.domains[d].train) for d in domains) // per


def train_steps(run: Run, model, bench, hp, adapted: bool, start: int,
                min_steps: int, seconds: float) -> dict:
    """Closed loop of train()-equivalent steps.

    The loop starts at global step `start` of the batch order that
    `training.train` would use and keeps going across epoch boundaries until
    at least `seconds` of step time and `min_steps` steps have passed. A step
    is what `train` does per batch: next batch, forward, objective,
    backward, SGD. Each step is followed by one calibration sample.
    """
    from m2dan import data, losses, model as model_mod, tensor, training

    domains = None if adapted else (0,)
    groups = ("gf", "gm", "gy", "gd") if adapted else ("gf", "gm", "gy")
    trainable = [(p, t) for p, t in model.params.items() if p.split(".")[0] in groups]
    epoch, pos = divmod(start, steps_per_epoch(bench, adapted))
    batches = data.epoch_batches(bench, hp.batch_size, hp.seed, epoch, domains=domains)
    for _ in range(pos):
        next(batches)
    step, busy = start, 0.0
    durations, loss_values, tape_ops, rows = [], [], [], []
    while busy < seconds or len(durations) < min_steps:
        t0 = time.perf_counter()
        batch = next(batches, None)
        if batch is None:
            epoch += 1
            batches = data.epoch_batches(bench, hp.batch_size, hp.seed, epoch, domains=domains)
            batch = next(batches)
        tensor.reset_tape()

        def one_step():
            fwd = model_mod.forward(model, batch.images, hp.grl, step, with_domain=adapted)
            loss, _ = losses.total_objective(fwd, batch, hp, use_focal=True,
                                             use_domain=adapted, use_entropy=adapted)
            ops = len(tensor.active_tape())
            value = loss.item()
            if math.isfinite(value):
                loss.backward()
                training.sgd_step(trainable, hp.lr)
            return value, ops

        out = run.op(f"step {step}", one_step)
        dt = time.perf_counter() - t0
        busy += dt
        durations.append(dt)
        run.calibrate()
        rows.append(batch.images.shape[0])
        if out is not None:
            loss_values.append(out[0])
            tape_ops.append(out[1])
            if not math.isfinite(out[0]):
                run.fail(f"step {step}: loss is {out[0]}")
        step += 1
    return {
        "durations": durations, "losses": loss_values, "tape_ops": tape_ops, "rows": rows,
        "params_stepped": sum(t.size for _, t in trainable), "end_step": step,
    }


def check_auc_oracle(model, bench, report) -> bool:
    """Recompute every domain's accuracy and AUC by brute force."""
    import numpy as np
    from m2dan import metrics

    aucs = []
    for dataset, dm in zip(bench.domains, report.domains):
        probs = metrics.predict_probs(model, dataset.test)
        labels = np.array([int(np.argmax(s.class_label)) for s in dataset.test])
        pos, neg = probs[labels == 0, 0], probs[labels != 0, 0]
        pairs = (pos[:, None] > neg[None, :]).mean() + 0.5 * (pos[:, None] == neg[None, :]).mean()
        acc = float(np.mean(probs.argmax(axis=1) == labels))
        if abs(pairs - dm.auc) > AUC_TOL or abs(acc - dm.accuracy) > AUC_TOL:
            return False
        aucs.append(pairs)
    return abs(float(np.mean(aucs[1:])) - report.mean_auc) <= AUC_TOL


def check_grad_composite(seed: int) -> bool:
    """grad_check through conv2d -> relu -> avg_pool2 -> linear, for input and kernel."""
    import numpy as np
    from m2dan import layers, tensor

    rng = np.random.default_rng([seed, 11])
    while True:  # keep pre-activations off the relu kink, where finite differences fail
        x = tensor.Tensor(rng.normal(size=(2, 2, 4, 4)), requires_grad=True)
        w = tensor.Tensor(0.5 * rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        b = tensor.Tensor(0.1 * rng.normal(size=3), requires_grad=True)
        with tensor.no_grad():
            pre = layers.conv2d(x, w, b).data
        if np.min(np.abs(pre)) > 1e-2:
            break
    lw = tensor.Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    lb = tensor.Tensor(rng.normal(size=2), requires_grad=True)
    mix = tensor.constant(rng.normal(size=(2, 2)))

    def net(xt, wt):
        h = layers.global_avg_pool(layers.avg_pool2(tensor.relu(layers.conv2d(xt, wt, b))))
        return tensor.tensor_sum(tensor.mul(layers.linear(h, lw, lb), mix))

    return (tensor.grad_check(lambda t: net(t, w), x).passed
            and tensor.grad_check(lambda t: net(x, t), w).passed)


def training_workload(run: Run) -> None:
    from m2dan import data, losses, metrics, model as model_mod

    adapted = run.workload == "adapted"
    hp = losses.HyperParams(seed=run.seed, batch_size=BATCH)

    def setup():
        bench = data.make_benchmark(run.seed, run.sizes.fraction)
        m = model_mod.build_model(model_mod.SCALE_VARIANTS["mixed"], model_mod.ExtractorArch(),
                                  bench.num_domains, seed=run.seed)
        return bench, m

    bench, m = run.setup(setup)
    start = max(0, steps_per_epoch(bench, adapted) - run.sizes.cross_after)
    st = train_steps(run, m, bench, hp, adapted, start, run.sizes.min_steps, run.seconds)
    report, eval_s = run.timed("evaluate", lambda: metrics.evaluate(m, bench))
    run.check("composite grad_check", lambda: check_grad_composite(run.seed))

    durations, n_test = st["durations"], sum(len(d.test) for d in bench.domains)
    busy = sum(durations)
    run.cost(durations)
    run.note("train_img_per_s", sum(st["rows"]) / busy, "img/s", f"{sum(st['rows'])} rows in {busy:.3f} s")
    q, tail_v = tail(durations)
    run.note("step_ms_p50", 1e3 * median(durations), "ms", f"n={len(durations)}")
    if q is not None:
        run.note(f"step_ms_p{q:g}", 1e3 * tail_v, "ms", f"n={len(durations)}")
    run.note("eval_img_per_s", n_test / eval_s, "img/s", f"{n_test} images")
    run.note("steps", len(durations), "count",
             f"global steps {start}..{st['end_step'] - 1}, epoch boundary every "
             f"{steps_per_epoch(bench, adapted)}")
    if st["tape_ops"]:
        run.note("tensor.tape_ops", median(st["tape_ops"]), "count", "per step")
    run.note("training.params_stepped", st["params_stepped"], "count", "per step")
    run.note("data.rows_per_batch", median(st["rows"]), "count")

    window = st["losses"][-LOSS_WINDOW:]
    if window:
        final = sum(window) / len(window)
        ref, tol = LOSS_REF[run.workload]
        run.note("final_mean_loss", final, "", f"last {len(window)} steps; reference {ref} +- {tol}")
        if run.sizes is FULL:
            run.check(f"final mean loss {final:.4f} outside {ref} +- {tol}",
                      lambda: abs(final - ref) <= tol)
    if report is not None:
        run.note("mean_auc", report.mean_auc, "", f"checked against a pairwise AUC, tol {AUC_TOL}")
        run.check("evaluate() disagrees with the brute-force AUC/accuracy",
                  lambda: check_auc_oracle(m, bench, report))


# ------------------------------------------------------------------ generate + eval


def expected_test_counts(fraction: float) -> tuple[int, ...]:
    return tuple(max(2, round(t * fraction)) for t in TEST_TOTALS)


def generate_eval_workload(run: Run) -> None:
    from m2dan import data, losses, metrics, model as model_mod, training

    hp = losses.HyperParams(seed=run.seed, batch_size=BATCH)
    # fixture: a briefly trained checkpoint, as `m2dan train` would leave one
    paused = run.recorder.paused() if run.recorder else contextlib.nullcontext()
    with paused:
        fixture = data.make_benchmark(run.seed, run.sizes.fixture_fraction)
    m = model_mod.build_model(model_mod.SCALE_VARIANTS["mixed"], model_mod.ExtractorArch(),
                              fixture.num_domains, seed=run.seed)
    st = train_steps(run, m, fixture, hp, True, 0, run.sizes.fixture_steps, 0.0)
    ckpt = run.work / "model.ckpt"
    training.save_checkpoint(training.TrainState(m, hp, st["end_step"], []), ckpt)
    del fixture, m

    state = run.setup(lambda: training.load_checkpoint(ckpt))
    expected = expected_test_counts(run.sizes.fraction)
    gen_rates, eval_times, eval_rates, rounds = [], [], [], []
    busy, i = 0.0, 0
    while busy < run.seconds or i < run.sizes.min_rounds:
        bench, gen_s = run.timed(
            f"make_benchmark round {i}",
            lambda: data.make_benchmark(run.seed + 1 + i, run.sizes.fraction))
        busy += gen_s
        if bench is None:
            i += 1
            continue
        counts = tuple(len(d.test) for d in bench.domains)
        run.check(f"round {i}: test counts {counts} != {expected}", lambda: counts == expected)
        gen_rates.append(sum(len(d.train) + len(d.test) for d in bench.domains) / gen_s)
        report, eval_s = run.timed(f"evaluate round {i}",
                                   lambda: metrics.evaluate(state.model, bench))
        busy += eval_s
        if report is not None:
            eval_times.append(eval_s)
            eval_rates.append(sum(counts) / eval_s)
            rounds.append(gen_s + eval_s)
            if i == 0:
                run.note("mean_auc", report.mean_auc, "", f"round 0; checked against a pairwise AUC, tol {AUC_TOL}")
                run.check("evaluate() disagrees with the brute-force AUC/accuracy",
                          lambda: check_auc_oracle(state.model, bench, report))
        i += 1
    run.check("composite grad_check", lambda: check_grad_composite(run.seed))

    run.cost(rounds)
    run.note("round_s", median(rounds), "s", f"make_benchmark + evaluate, median of n={len(rounds)}")
    run.note("gen_img_per_s", median(gen_rates), "img/s", f"median of n={len(gen_rates)} make_benchmark calls")
    run.note("eval_img_per_s", median(eval_rates), "img/s", f"median of n={len(eval_rates)} evaluate calls")
    run.note("eval_ms_p50", 1e3 * median(eval_times), "ms", f"n={len(eval_times)}")


# ------------------------------------------------------------------ sweep grid


def check_sweep_csv(path: Path) -> bool:
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if rows[0] != SWEEP_HEADER or [r[0] for r in rows[1:]] != list(ALPHA_GRID):
        return False
    for r in rows[1:]:
        if len(r) != len(SWEEP_HEADER):
            return False
        a1, a2, mean = (float(c) for c in r[1:])
        if not (0.0 <= a1 <= 1.0 and 0.0 <= a2 <= 1.0 and abs(mean - (a1 + a2) / 2) <= 1e-12):
            return False
    return True


def sweep_workload(run: Run) -> None:
    from m2dan import cli, data

    cfg = run.work / "sweep.cfg"
    cfg.write_text(
        "# alpha sweep on a small benchmark\n"
        f"epochs = 1\nscale_fraction = {run.sizes.sweep_fraction!r}\n"
        f"data_seed = {run.seed}\nseed = {run.seed}\n",
        encoding="utf-8",
    )
    run.setup(lambda: cli.load_config(str(cfg), [f"out_dir={run.work}"]))
    specs = data.benchmark_domain_specs(run.sizes.sweep_fraction)
    per = BATCH // len(specs)
    rows_per_grid = len(ALPHA_GRID) * (max(s.n_train for s in specs) // per) * BATCH

    grid_times, first_csv = [], None
    prev_threads = os.environ.get("M2DAN_THREADS")
    os.environ["M2DAN_THREADS"] = str(GRID_THREADS)
    try:
        busy, i = 0.0, 0
        while busy < run.seconds or i < run.sizes.min_rounds:
            out = run.work / f"grid{i}"
            argv = ["sweep", "--param", "alpha", "--config", str(cfg),
                    "--override", f"out_dir={out}"]
            with contextlib.redirect_stdout(io.StringIO()):
                code, dt = run.timed(f"grid {i}", lambda: cli.main(argv))
            busy += dt
            csv_path = out / "sweep_alpha.csv"
            run.check(f"grid {i}: exit code {code}", lambda: code == 0 and csv_path.is_file())
            if code == 0 and csv_path.is_file():
                grid_times.append(dt)
                run.check(f"grid {i}: sweep CSV header or rows wrong",
                          lambda: check_sweep_csv(csv_path))
                first_csv = first_csv or csv_path.read_bytes()
                run.check(f"grid {i}: CSV differs from grid 0",
                          lambda: csv_path.read_bytes() == first_csv)
            i += 1
    finally:
        if prev_threads is None:
            os.environ.pop("M2DAN_THREADS", None)
        else:
            os.environ["M2DAN_THREADS"] = prev_threads
    run.check("composite grad_check", lambda: check_grad_composite(run.seed))

    rates = [rows_per_grid / t for t in grid_times]
    run.cost(grid_times)
    run.note("grid_s", median(grid_times), "s", f"median of n={len(grid_times)} grids, "
             f"{len(ALPHA_GRID)} configs on {GRID_THREADS} threads")
    run.note("grid_train_img_per_s", median(rates), "img/s", f"{rows_per_grid} training rows per grid")
    run.extra.update(grid_s=grid_times, threads=GRID_THREADS)


WORKLOAD_FNS = {
    "adapted": training_workload,
    "source_only": training_workload,
    "generate_eval": generate_eval_workload,
    "sweep_grid": sweep_workload,
}


# ------------------------------------------------------------------ traced summary


def per_layer_metrics(rec: SpanRecorder, traced: Run, untraced: Run,
                      table: dict[str, tuple[float, str]]) -> tuple[dict, list]:
    """Per-layer metrics common to every workload, plus workload-only extras.

    `untraced` is the untraced phase run right after the traced one: the
    first phase in a process runs a few percent cheaper than any later one,
    so it is not a fair reference for the tracing overhead.
    """
    s = rec.summary()

    def p50_of(name, key=None, scale=1.0, per=None):
        e = s[name]
        pairs = list(zip(e["durations"], e["attrs"]))
        if name == "data.batch":  # drop the next() that finds the epoch exhausted
            pairs = [(d, a) for d, a in pairs if a["rows"]]
        if key is not None:
            vals = [a[key] for _, a in pairs]
        elif per is not None:
            vals = [d / a[per] for d, a in pairs]
        else:
            vals = [d for d, _ in pairs]
        return scale * percentile(sorted(vals), 50.0)

    m = {
        "data.make_benchmark_s": (p50_of("data.make_benchmark"), "s"),
        "data.render_ms_per_image": (p50_of("data.make_benchmark", scale=1e3, per="images"), "ms"),
        "data.batch_ms": (p50_of("data.batch", scale=1e3), "ms"),
        "data.rows_per_batch": (p50_of("data.batch", key="rows"), "count"),
        "model.forward_ms": (p50_of("model.forward", scale=1e3), "ms"),
        "losses.objective_ms": (p50_of("losses.objective", scale=1e3), "ms"),
        "tensor.backward_ms": (p50_of("tensor.backward", scale=1e3), "ms"),
        "tensor.tape_ops": (p50_of("tensor.backward", key="tape_ops"), "count"),
        "training.sgd_ms": (p50_of("training.sgd", scale=1e3), "ms"),
        "training.params_stepped": (p50_of("training.sgd", key="params"), "count"),
        "model.eval_forward_ms_per_image": (p50_of("model.eval_forward", scale=1e3, per="rows"), "ms"),
        "metrics.evaluate_s": (p50_of("metrics.evaluate"), "s"),
        "metrics.auc_ms": (p50_of("metrics.auc", scale=1e3), "ms"),
        "trace.overhead_frac": (traced.metrics["op_cost_p50"][0] / untraced.metrics["op_cost_p50"][0] - 1.0,
                                "ratio"),
    }
    m.update(table)
    extras = []
    if "training.checkpoint_load" in s:
        extras.append(("training.checkpoint_load_ms", p50_of("training.checkpoint_load", scale=1e3), "ms"))
    if "cli.run_training" in s:
        e = s["cli.run_training"]
        extras.append(("cli.run_training_s", p50_of("cli.run_training"), "s"))
        extras.append(("cli.grid_efficiency",
                       e["total_s"] / (traced.extra["threads"] * sum(traced.extra["grid_s"])), "ratio"))
    return m, extras


def span_table(rec: SpanRecorder) -> list[str]:
    lines = [f"{'span':28s} {'n':>6s} {'total_s':>9s} {'self_s':>9s} {'p50_ms':>9s} {'tail_ms':>16s}"]
    for name, e in rec.summary().items():
        tail_txt = "-" if e["tail_q"] is None else f"p{e['tail_q']:g}={e['tail_ms']:.3f}"
        lines.append(f"{name:28s} {e['n']:6d} {e['total_s']:9.3f} {e['self_s']:9.3f} "
                     f"{e['p50_ms']:9.3f} {tail_txt:>16s}")
    return lines


# ------------------------------------------------------------------ driver


def provenance() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):  # numpy without mode="dicts"
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            np.show_config()
        blas = text.getvalue()
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_env": {v: os.environ.get(v) for v in BLAS_ENV},
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, sizes: Sizes,
                 out=sys.stdout) -> dict:
    """Run one workload and return the result. With trace, the untraced run
    is followed by a traced one and another untraced one."""
    import layer_table

    OUT_DIR.mkdir(exist_ok=True)
    work = OUT_DIR / f"work-{workload}-{os.getpid()}"
    fn = WORKLOAD_FNS[workload]
    prov = provenance()
    prov["loadavg_before"] = os.getloadavg()
    cal = Calibrator()  # shared, so both phases time the very same arrays
    runs = []
    try:
        for traced in ((False, True, False) if trace else (False,)):
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            rec = SpanRecorder() if traced else None
            run = Run(workload, seed, seconds, sizes, work, cal, rec)
            with rec.patched() if rec else contextlib.nullcontext():
                fn(run)
            run.metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
            runs.append((run, rec))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    prov["loadavg_after"] = os.getloadavg()

    print(f"# workload {workload} seed {seed} seconds {seconds} trace {int(trace)}", file=out)
    print(f"# provenance {json.dumps(prov)}", file=out)
    base = runs[0][0]
    attempted = sum(r.attempted for r, _ in runs)
    failures = [f for r, _ in runs for f in r.failures]
    print("# end-to-end (untraced run)", file=out)
    for name, (value, unit) in base.metrics.items():
        print(f"{name:32s} {value:14.6g} {unit}", file=out)
    print(f"{'calibration_ms_p50':32s} {1e3 * median(base.cal_samples):14.6g} ms     "
          f"1 cal = one calibration kernel run, n={len(base.cal_samples)}", file=out)
    for name, value, unit, extra in base.report:
        print(f"{name:32s} {value:14.6g} {unit:6s} {extra}", file=out)
    print(f"{'failed_frac':32s} {len(failures) / attempted:14.6g} ratio  "
          f"{len(failures)} of {attempted} operations", file=out)
    for f in failures:
        print(f"FAILED {f}", file=out)
    metrics = base.metrics
    if trace:
        run, rec = runs[1]
        table = layer_table.measure(seed, sizes.table_reps, sizes.table_eval_reps)
        metrics, extras = per_layer_metrics(rec, run, runs[2][0], table)
        print("# spans (traced run); self = span minus its child spans", file=out)
        for line in span_table(rec):
            print(line, file=out)
        print("# per-layer", file=out)
        for name, (value, unit) in metrics.items():
            print(f"{name:44s} {value:14.6g} {unit}", file=out)
        for name, value, unit in extras:
            print(f"{name:44s} {value:14.6g} {unit}  ({workload} only)", file=out)
        trace_path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
        trace_path.write_text(rec.to_json(), encoding="utf-8")
        print(f"# spans written to {trace_path}", file=out)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def validate(result: dict, spec: dict, trace: bool) -> list[str]:
    """Problems with a result against BENCHMARK.json (empty when it conforms)."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    want = spec["per_layer" if trace else "end_to_end"]
    got = result.get("metrics", {})
    if set(got) != {m["name"] for m in want}:
        problems.append(f"metric names differ: missing {sorted({m['name'] for m in want} - set(got))}, "
                        f"extra {sorted(set(got) - {m['name'] for m in want})}")
    for m in want:
        v = got.get(m["name"])
        if v is None:
            continue
        if set(v) != {"value", "unit"} or v["unit"] != m["unit"]:
            problems.append(f"{m['name']}: {v}")
        elif not isinstance(v["value"], (int, float)) or not math.isfinite(v["value"]):
            problems.append(f"{m['name']}: value {v['value']!r}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')} failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"attempted={result.get('attempted')}")
    return problems


def smoke() -> int:
    """Every workload, untraced and traced, at tiny sizes; check the schema."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bad = 0
    for workload in WORKLOADS:
        for trace in (False, True):
            t0 = time.perf_counter()
            result = run_workload(workload, 1, 0.05, trace, SMOKE, out=io.StringIO())
            problems = validate(result, spec, trace)
            bad += bool(problems)
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"smoke {workload:14s} trace={int(trace)} {time.perf_counter() - t0:6.1f} s {status}")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at tiny sizes and validate the output schema")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    import_program()
    if args.smoke:
        return smoke()
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), FULL)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
