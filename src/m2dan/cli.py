"""Batch experiment driver: data generation, training, evaluation, ablations,
hyperparameter sweeps, and curve plotting.

Every command is a pure function of its config file, overrides, and input
files; with M2DAN_THREADS=1 identical invocations produce byte-identical
artifacts. Exit codes: 0 success, 1 usage or config error, 2 data error,
3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace
from pathlib import Path

from .data import (
    Benchmark,
    DEFAULT_FRACTION,
    HALF_MODES,
    NARROW,
    export_dataset,
    load_dataset_dir,
    make_benchmark,
)
from .errors import (
    ConfigError,
    CorruptFile,
    EmptyClassDir,
    IndivisibleBatch,
    InvalidSpec,
    MalformedCsv,
    MalformedPgm,
    MissingSource,
    NonFiniteInput,
    NumericError,
    SpecMismatch,
    VersionMismatch,
)
from .losses import HyperParams
from .metrics import MetricsReport, evaluate
from .model import SCALE_VARIANTS, ExtractorArch, build_model
from .plotting import render_curves
from .training import (
    TrainState,
    load_checkpoint,
    read_history_csv,
    save_checkpoint,
    train,
    write_atomic,
    write_history_csv,
)

ALPHA_GRID = (0.0003, 0.003, 0.03, 0.3)
ETA_GRID = (0.001, 0.01, 0.1, 1.0)
LAMBDA_GRID = (0.001, 0.01, 0.1, 1.0)
SWEEP_GRIDS = {"alpha": ALPHA_GRID, "eta": ETA_GRID, "lambda": LAMBDA_GRID}


# ------------------------------------------------------------- configuration


def _parse_bool(value: str) -> bool:
    low = value.lower()
    if low in ("on", "true", "1", "yes"):
        return True
    if low in ("off", "false", "0", "no"):
        return False
    raise ValueError(f"expected on/off, got {value!r}")


def _parse_opt_int(value: str) -> int | None:
    return None if value.lower() == "none" else int(value)


def _parse_opt_str(value: str) -> str | None:
    return None if value.lower() == "none" else value


def _fmt_value(v) -> str:
    if v is None:
        return "none"
    if isinstance(v, bool):
        return "on" if v else "off"
    if isinstance(v, float):
        return repr(v)
    return str(v)


# parser per HyperParams field annotation
_PARSERS = {"float": float, "int": int, "str": str, "bool": _parse_bool,
            "int | None": _parse_opt_int, "str | None": _parse_opt_str}

# config key -> (HyperParams field, parser), in field order, which is echo
# order; the field `lam` is spelled `lambda` in config files
_KEY_FIELDS = {
    ("lambda" if f.name == "lam" else f.name): (f.name, _PARSERS[f.type])
    for f in fields(HyperParams)
}


def parse_config_text(text: str, label: str) -> dict[str, str]:
    """Flat `key = value` lines; blank lines and # comments are skipped."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{label}:{lineno}: expected `key = value`, got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key in raw:
            raise ConfigError(f"{label}:{lineno}: duplicate key {key!r}")
        raw[key] = value.strip()
    return raw


def build_config(raw: dict[str, str]) -> HyperParams:
    values = {}
    for key, value in raw.items():
        if key not in _KEY_FIELDS:
            raise ConfigError(f"unknown config key {key!r}")
        attr, parser = _KEY_FIELDS[key]
        try:
            values[attr] = parser(value)
        except ValueError as e:
            raise ConfigError(f"config key {key}: {e}") from e
    try:
        return HyperParams(**values)
    except InvalidSpec as e:
        raise ConfigError(str(e)) from e


def load_config(path: str | None, overrides: list[str]) -> HyperParams:
    raw: dict[str, str] = {}
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as e:
            raise ConfigError(f"cannot read config {path}: {e}") from e
        raw.update(parse_config_text(text, path))
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r}: expected key=value")
        key, _, value = item.partition("=")
        raw[key.strip()] = value.strip()  # later overrides win
    return build_config(raw)


def echo_config(cfg: HyperParams) -> str:
    lines = [f"{key} = {_fmt_value(getattr(cfg, attr))}"
             for key, (attr, _) in _KEY_FIELDS.items()]
    return "\n".join(lines) + "\n"


# ------------------------------------------------------------- run plumbing


def _load_benchmark(cfg: HyperParams) -> Benchmark:
    if cfg.data_dir is not None:
        return load_dataset_dir(Path(cfg.data_dir), half=cfg.half,
                                image_size=cfg.image_size)
    return make_benchmark(cfg.data_seed, cfg.scale_fraction, cfg.image_size)


def run_training(cfg: HyperParams, benchmark: Benchmark) -> tuple[TrainState, MetricsReport]:
    model = build_model(SCALE_VARIANTS[cfg.scale], ExtractorArch(),
                        benchmark.num_domains, seed=cfg.seed)
    state = train(model, benchmark, cfg)
    return state, state.report


def _csv_cell(cell) -> str:
    if isinstance(cell, float):
        return repr(cell)  # full precision, round-trips exactly
    return str(cell)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([_csv_cell(cell) for cell in row])
    write_atomic(path, buf.getvalue().encode("utf-8"))


def _worker_count() -> int:
    value = os.environ.get("M2DAN_THREADS", "1")
    try:
        threads = int(value)
    except ValueError as e:
        raise ConfigError(f"M2DAN_THREADS must be an integer, got {value!r}") from e
    if threads < 1:
        raise ConfigError(f"M2DAN_THREADS must be >= 1, got {threads}")
    return threads


def _run_grid(fn, configs: list[HyperParams]):
    """Train every config, results in grid order regardless of parallelism."""
    threads = _worker_count()
    if threads == 1:
        return [fn(c) for c in configs]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, configs))


# ------------------------------------------------------------- subcommands


def cmd_gen_data(args) -> int:
    out = Path(args.out)
    benchmark = make_benchmark(args.seed, args.scale_fraction, args.image_size)
    export_dataset(benchmark, out)
    for dataset in benchmark.domains:
        train_labels = dataset.train.class_labels
        tr_narrow = 0 if train_labels is None else int(train_labels[:, NARROW].sum())
        te_narrow = int(dataset.test.class_labels[:, NARROW].sum())
        label = (f"train={len(dataset.train)} (narrow={tr_narrow})"
                 if tr_narrow else f"train={len(dataset.train)} (unlabeled)")
        print(f"{dataset.name}: {label} test={len(dataset.test)} (narrow={te_narrow})")
    print(f"wrote PGM tree under {out}")
    return 0


def _train_artifacts(cfg: HyperParams, out: Path) -> MetricsReport:
    out.mkdir(parents=True, exist_ok=True)
    write_atomic(out / "config.txt", echo_config(cfg).encode("utf-8"))
    benchmark = _load_benchmark(cfg)
    state, report = run_training(cfg, benchmark)
    save_checkpoint(state, out / "model.ckpt")
    write_history_csv(state.history, benchmark.names, out / "history.csv")
    header, rows = read_history_csv(out / "history.csv")
    write_atomic(out / "curves.svg", render_curves(header, rows).encode("utf-8"))
    write_atomic(out / "metrics.json", report.to_json().encode("utf-8"))
    return report


def cmd_train(args) -> int:
    cfg = load_config(args.config, args.override)
    report = _train_artifacts(cfg, Path(cfg.out_dir))
    print(f"done: mean_acc={report.mean_acc:.4f} mean_auc={report.mean_auc:.4f} "
          f"artifacts in {cfg.out_dir}")
    return 0


def cmd_eval(args) -> int:
    state = load_checkpoint(Path(args.checkpoint))
    if args.data is not None:
        benchmark = load_dataset_dir(Path(args.data), half=args.half,
                                     image_size=args.image_size)
    else:
        benchmark = make_benchmark(args.synthetic_seed, args.scale_fraction,
                                   args.image_size)
    report = evaluate(state.model, benchmark)
    sys.stdout.write(report.to_json())
    return 0


def _report_cells(report: MetricsReport, with_acc: bool) -> list:
    cells = []
    for d in report.domains[1:]:
        if with_acc:
            cells.append(d.accuracy)
        cells.append(d.auc)
    if with_acc:
        cells += [report.mean_acc, report.mean_auc]
    else:
        cells.append(report.mean_auc)
    return cells


def cmd_ablate(args) -> int:
    cfg = load_config(args.config, args.override)
    out = Path(args.out or cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    benchmark = _load_benchmark(cfg)
    target_names = benchmark.names[1:]
    metric_cols = [f"{m}_{n}" for n in target_names for m in ("acc", "auc")]
    metric_cols += ["mean_acc", "mean_auc"]

    def run_one(c: HyperParams) -> MetricsReport:
        return run_training(c, benchmark)[1]

    if args.which == "scales":
        variants = ["s1", "s3", "s5", "mixed"]
        configs = [replace(cfg, scale=v) for v in variants]
        reports = _run_grid(run_one, configs)
        rows = [[v] + _report_cells(r, with_acc=True)
                for v, r in zip(variants, reports)]
        path = out / "ablation_scales.csv"
        _write_csv(path, ["variant"] + metric_cols, rows)
    else:
        combos = [  # (class_loss, domain, entropy) per ablation row
            ("ce", False, False),
            ("focal", False, False),
            ("focal", True, False),
            ("focal", True, True),
        ]
        configs = [
            replace(cfg, class_loss=cl, domain_loss=dom, entropy_loss=ent,
                    source_only=False)
            for cl, dom, ent in combos
        ]
        reports = _run_grid(run_one, configs)
        rows = []
        for (cl, dom, ent), report in zip(combos, reports):
            flags = [int(cl == "ce"), int(cl == "focal"), int(dom), int(ent)]
            rows.append(flags + _report_cells(report, with_acc=True))
        path = out / "ablation_losses.csv"
        _write_csv(path, ["l_ce", "l_fo", "l_d", "l_en"] + metric_cols, rows)
    print(f"wrote {path}")
    return 0


def cmd_sweep(args) -> int:
    cfg = load_config(args.config, args.override)
    out = Path(args.out or cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    benchmark = _load_benchmark(cfg)
    attr = _KEY_FIELDS[args.param][0]
    grid = SWEEP_GRIDS[args.param]
    configs = [replace(cfg, **{attr: value}) for value in grid]

    def run_one(c: HyperParams) -> MetricsReport:
        return run_training(c, benchmark)[1]

    reports = _run_grid(run_one, configs)
    header = ["value"] + [f"auc_{n}" for n in benchmark.names[1:]] + ["mean_auc"]
    rows = [[value] + _report_cells(report, with_acc=False)
            for value, report in zip(grid, reports)]
    path = out / f"sweep_{args.param}.csv"
    _write_csv(path, header, rows)
    print(f"wrote {path}")
    return 0


def cmd_plot(args) -> int:
    header, rows = read_history_csv(Path(args.history))
    write_atomic(Path(args.out), render_curves(header, rows).encode("utf-8"))
    print(f"wrote {args.out}")
    return 0


# ------------------------------------------------------------- entry point


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems must exit 1, not argparse's 2
        raise ConfigError(message)


def build_parser() -> _Parser:
    parser = _Parser(
        prog="m2dan",
        description=(
            "Multi-scale multi-target domain-adversarial experiments. "
            "Ablation CSV columns: variant (or l_ce,l_fo,l_d,l_en flags), then "
            "acc_<target>, auc_<target> per target, then mean_acc, mean_auc. "
            "Sweep CSV columns: value, auc_<target> per target, mean_auc."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen-data", help="export the synthetic benchmark as PGM trees")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--scale-fraction", type=float, default=DEFAULT_FRACTION)
    p.add_argument("--image-size", type=int, default=64)
    p.set_defaults(fn=cmd_gen_data)

    p = sub.add_parser("train", help="train one model and write all artifacts")
    p.add_argument("--config", default=None)
    p.add_argument("--override", action="append", default=[], metavar="KEY=VALUE")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint, JSON report to stdout")
    p.add_argument("--checkpoint", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--data", default=None)
    group.add_argument("--synthetic-seed", type=int, default=None)
    p.add_argument("--scale-fraction", type=float, default=DEFAULT_FRACTION)
    p.add_argument("--image-size", type=int, default=64)
    p.add_argument("--half", choices=HALF_MODES, default="none")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("ablate", help="scale or loss ablation grid")
    p.add_argument("--config", default=None)
    p.add_argument("--override", action="append", default=[], metavar="KEY=VALUE")
    p.add_argument("--which", choices=("scales", "losses"), required=True)
    p.add_argument("--out", default=None, help="output directory (default: out_dir)")
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("sweep", help="hyperparameter sweep over a fixed grid")
    p.add_argument("--config", default=None)
    p.add_argument("--override", action="append", default=[], metavar="KEY=VALUE")
    p.add_argument("--param", choices=("alpha", "eta", "lambda"), required=True)
    p.add_argument("--out", default=None, help="output directory (default: out_dir)")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("plot", help="render training curves from a history CSV")
    p.add_argument("--history", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_plot)

    return parser


_DATA_ERRORS = (
    MalformedPgm,
    MissingSource,
    EmptyClassDir,
    MalformedCsv,
    CorruptFile,
    VersionMismatch,
    SpecMismatch,
    FileNotFoundError,
    NotADirectoryError,
    IsADirectoryError,
)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except (ConfigError, InvalidSpec, IndivisibleBatch) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except _DATA_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (NumericError, NonFiniteInput) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
