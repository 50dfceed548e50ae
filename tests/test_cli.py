import csv
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from m2dan.cli import (
    ALPHA_GRID,
    ETA_GRID,
    LAMBDA_GRID,
    build_config,
    echo_config,
    load_config,
    main,
    parse_config_text,
)
from m2dan.errors import ConfigError
from m2dan.losses import HyperParams
from m2dan.plotting import render_curves

TINY = {
    "epochs": "2",
    "batch_size": "6",
    "scale_fraction": "0.003",
    "image_size": "32",
}


def write_config(tmp_path, name="cfg.txt", **extra):
    settings = dict(TINY)
    settings.setdefault("out_dir", str(tmp_path / "out"))
    settings.update(extra)
    path = tmp_path / name
    path.write_text("".join(f"{k} = {v}\n" for k, v in settings.items()))
    return path


def read_csv(path):
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


# ------------------------------------------------------------- configuration


def test_config_defaults():
    cfg = build_config({})
    assert cfg == HyperParams()
    assert cfg.alpha == 0.03 and cfg.lam == 1.0 and cfg.eta == 0.1
    assert cfg.gamma == 2.0 and cfg.lr == 0.001
    assert cfg.epochs == 30 and cfg.batch_size == 12 and cfg.seed == 42


def test_config_echo_round_trips():
    cfg = build_config({"lambda": "0.25", "grl_mode": "ramp", "grl_ramp_length": "50",
                        "domain_loss": "off", "data_dir": "none"})
    assert cfg.lam == 0.25
    again = build_config(parse_config_text(echo_config(cfg), "echo"))
    assert again == cfg


def test_config_rejects_unknown_and_bad_values():
    with pytest.raises(ConfigError):
        build_config({"learning_rate": "0.1"})
    with pytest.raises(ConfigError):
        build_config({"epochs": "three"})
    with pytest.raises(ConfigError):
        build_config({"lr": "0"})  # invalid hyperparameter caught at parse time
    with pytest.raises(ConfigError):
        build_config({"scale": "s7"})
    with pytest.raises(ConfigError):
        parse_config_text("alpha = 1\nalpha = 2\n", "dup")
    with pytest.raises(ConfigError):
        parse_config_text("just some text\n", "bad")


def test_readme_config_table_matches_echo():
    # README's "Configuration keys" table lists every key echo_config prints,
    # in the same order
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("### Configuration keys", 1)[1].split("\n\n")[1]
    documented = [line.split("`")[1] for line in table.splitlines()
                  if line.startswith("| `")]
    echoed = [line.split(" = ")[0] for line in echo_config(HyperParams()).splitlines()]
    assert documented == echoed


def test_overrides_beat_config_file(tmp_path):
    path = write_config(tmp_path, alpha="0.1")
    cfg = load_config(str(path), ["alpha=0.2", "seed=7"])
    assert cfg.alpha == 0.2 and cfg.seed == 7
    with pytest.raises(ConfigError):
        load_config(str(path), ["alpha"])


def test_usage_errors_exit_1(tmp_path):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["train", "--override", "nope=1"]) == 1
    assert main(["train", "--config", str(tmp_path / "missing.txt")]) == 1
    assert main(["ablate", "--which", "everything"]) == 1


def test_help_prints_csv_columns(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "mean_auc" in out  # CSV column structure is documented


# ------------------------------------------------------------- gen-data


def test_gen_data_exports_and_reports_counts(tmp_path, capsys):
    args = ["--seed", "7", "--scale-fraction", "0.003", "--image-size", "32"]
    assert main(["gen-data", "--out", str(tmp_path / "a")] + args) == 0
    first = capsys.readouterr().out
    assert first.startswith("source: train=27")
    assert "target1" in first and "target2" in first
    for domain in ("source", "target1", "target2"):
        assert (tmp_path / "a" / domain / "train").is_dir()
        assert (tmp_path / "a" / domain / "test").is_dir()
    # byte-identical on rerun
    assert main(["gen-data", "--out", str(tmp_path / "b")] + args) == 0
    files_a = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*.pgm"))
    files_b = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*.pgm"))
    assert files_a == files_b and files_a
    for rel in files_a:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()


# ------------------------------------------------------------- train / eval


@pytest.fixture(scope="module")
def trained_dir(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("train")
    cfg = write_config(tmp_path)
    assert main(["train", "--config", str(cfg)]) == 0
    return tmp_path


def test_train_writes_all_artifacts(trained_dir):
    out = trained_dir / "out"
    for name in ("config.txt", "model.ckpt", "history.csv", "curves.svg", "metrics.json"):
        assert (out / name).is_file(), name
    report = json.loads((out / "metrics.json").read_text())
    assert [d["name"] for d in report["domains"]] == ["source", "target1", "target2"]


def test_train_rerun_is_byte_identical(trained_dir, tmp_path):
    cfg = write_config(tmp_path, out_dir=str(tmp_path / "out2"))
    assert main(["train", "--config", str(cfg)]) == 0
    for name in ("model.ckpt", "history.csv", "curves.svg", "metrics.json"):
        a = (trained_dir / "out" / name).read_bytes()
        b = (tmp_path / "out2" / name).read_bytes()
        assert a == b, name


def test_config_echo_reproduces_run(trained_dir, tmp_path):
    echo = trained_dir / "out" / "config.txt"
    assert main(["train", "--config", str(echo),
                 "--override", f"out_dir={tmp_path / 'redo'}"]) == 0
    assert (tmp_path / "redo" / "model.ckpt").read_bytes() == \
        (trained_dir / "out" / "model.ckpt").read_bytes()


def test_eval_reproduces_train_metrics(trained_dir, capsys):
    assert main(["eval", "--checkpoint", str(trained_dir / "out" / "model.ckpt"),
                 "--synthetic-seed", "42", "--scale-fraction", "0.003",
                 "--image-size", "32"]) == 0
    printed = capsys.readouterr().out
    assert printed == (trained_dir / "out" / "metrics.json").read_text()


def test_training_run_evaluates_once(monkeypatch):
    from m2dan import cli, training

    calls = []
    real = training.evaluate

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(training, "evaluate", counting)
    monkeypatch.setattr(cli, "evaluate", counting)
    cfg = build_config(dict(TINY, epochs="1"))
    state, report = cli.run_training(cfg, cli._load_benchmark(cfg))
    assert len(calls) == 1
    assert report is state.report
    last = state.history[-1]
    assert [last[f"auc_{d.name}"] for d in report.domains] == [d.auc for d in report.domains]


def test_eval_missing_checkpoint_is_a_data_error(tmp_path):
    assert main(["eval", "--checkpoint", str(tmp_path / "nope.ckpt"),
                 "--synthetic-seed", "1"]) == 2


def test_eval_on_exported_data(trained_dir, tmp_path, capsys):
    assert main(["gen-data", "--out", str(tmp_path / "data"), "--seed", "42",
                 "--scale-fraction", "0.003", "--image-size", "32"]) == 0
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(trained_dir / "out" / "model.ckpt"),
                 "--data", str(tmp_path / "data"), "--image-size", "32"]) == 0
    report = json.loads(capsys.readouterr().out)
    # PGM round trip is bit exact, so the metrics match the synthetic run
    trained = json.loads((trained_dir / "out" / "metrics.json").read_text())
    assert report == trained


def test_numeric_failure_exits_3(tmp_path):
    cfg = write_config(tmp_path, gamma="nan", epochs="1")
    assert main(["train", "--config", str(cfg)]) == 3


# ------------------------------------------------------------- plot


def test_plot_renders_curve_per_series(trained_dir, tmp_path):
    out = tmp_path / "curves.svg"
    assert main(["plot", "--history", str(trained_dir / "out" / "history.csv"),
                 "--out", str(out)]) == 0
    svg = out.read_text()
    root = ET.fromstring(svg)  # well-formed XML
    ns = "{http://www.w3.org/2000/svg}"
    curves = [e for e in root.iter(f"{ns}polyline") if e.get("class") == "curve"]
    assert len(curves) == 3 + 3  # three losses plus one AUC series per domain
    assert svg == (trained_dir / "out" / "curves.svg").read_text()


def test_plot_rejects_empty_history(tmp_path):
    empty = tmp_path / "history.csv"
    empty.write_text("")
    assert main(["plot", "--history", str(empty), "--out", str(tmp_path / "x.svg")]) == 2


def test_plot_escapes_domain_names():
    header = ["epoch", "l_fo", "l_en", "l_d", "auc_a&<b>"]
    row = {"epoch": 0, "l_fo": 1.0, "l_en": 0.5, "l_d": 0.7, "auc_a&<b>": 0.6}
    svg = render_curves(header, [row])
    assert ">a&amp;&lt;b&gt;</text>" in svg
    assert "a&<b>" not in svg
    ET.fromstring(svg)


def test_cli_import_leaves_out_urllib():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = "import sys, m2dan.cli; print('urllib.request' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"


# ------------------------------------------------------------- ablate / sweep


def test_ablate_scales_structure(tmp_path):
    cfg = write_config(tmp_path, epochs="1")
    assert main(["ablate", "--config", str(cfg), "--which", "scales"]) == 0
    header, rows = read_csv(tmp_path / "out" / "ablation_scales.csv")
    assert header == ["variant", "acc_target1", "auc_target1", "acc_target2",
                      "auc_target2", "mean_acc", "mean_auc"]
    assert [r[0] for r in rows] == ["s1", "s3", "s5", "mixed"]
    for row in rows:
        assert all(0.0 <= float(v) <= 1.0 for v in row[1:])


def test_ablate_losses_structure(tmp_path):
    cfg = write_config(tmp_path, epochs="1")
    assert main(["ablate", "--config", str(cfg), "--which", "losses"]) == 0
    header, rows = read_csv(tmp_path / "out" / "ablation_losses.csv")
    assert header == ["l_ce", "l_fo", "l_d", "l_en", "acc_target1", "auc_target1",
                      "acc_target2", "auc_target2", "mean_acc", "mean_auc"]
    assert [r[:4] for r in rows] == [
        ["1", "0", "0", "0"],
        ["0", "1", "0", "0"],
        ["0", "1", "1", "0"],
        ["0", "1", "1", "1"],
    ]


def test_sweep_alpha_grid(tmp_path):
    cfg = write_config(tmp_path, epochs="1")
    assert main(["sweep", "--config", str(cfg), "--param", "alpha"]) == 0
    header, rows = read_csv(tmp_path / "out" / "sweep_alpha.csv")
    assert header == ["value", "auc_target1", "auc_target2", "mean_auc"]
    assert [float(r[0]) for r in rows] == [0.0003, 0.003, 0.03, 0.3]
    assert len(rows) == 4


def test_sweep_out_flag_overrides_out_dir(tmp_path):
    cfg = write_config(tmp_path, epochs="1")
    target = tmp_path / "elsewhere"
    assert main(["sweep", "--config", str(cfg), "--param", "alpha",
                 "--out", str(target)]) == 0
    header, rows = read_csv(target / "sweep_alpha.csv")
    assert header == ["value", "auc_target1", "auc_target2", "mean_auc"]
    assert len(rows) == 4
    assert not (tmp_path / "out").exists()


def test_ablate_accepts_out_flag(tmp_path):
    cfg = write_config(tmp_path, epochs="1")
    target = tmp_path / "elsewhere"
    assert main(["ablate", "--config", str(cfg), "--which", "scales",
                 "--out", str(target)]) == 0
    assert (target / "ablation_scales.csv").exists()
    assert not (tmp_path / "out").exists()


def test_sweep_grids_match_published_values():
    assert ALPHA_GRID == (0.0003, 0.003, 0.03, 0.3)
    assert ETA_GRID == (0.001, 0.01, 0.1, 1.0)
    assert LAMBDA_GRID == (0.001, 0.01, 0.1, 1.0)


def test_parallel_ablation_matches_serial(tmp_path, monkeypatch):
    cfg_a = write_config(tmp_path, name="a.txt", epochs="1",
                         out_dir=str(tmp_path / "serial"))
    monkeypatch.setenv("M2DAN_THREADS", "1")
    assert main(["ablate", "--config", str(cfg_a), "--which", "scales"]) == 0
    cfg_b = write_config(tmp_path, name="b.txt", epochs="1",
                         out_dir=str(tmp_path / "threaded"))
    monkeypatch.setenv("M2DAN_THREADS", "3")
    assert main(["ablate", "--config", str(cfg_b), "--which", "scales"]) == 0
    assert (tmp_path / "serial" / "ablation_scales.csv").read_bytes() == \
        (tmp_path / "threaded" / "ablation_scales.csv").read_bytes()


def test_bad_threads_env_is_usage_error(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, epochs="1")
    monkeypatch.setenv("M2DAN_THREADS", "many")
    assert main(["ablate", "--config", str(cfg), "--which", "scales"]) == 1
