"""SGD training loop, history, and binary checkpoints.

`train` takes its whole run config from one HyperParams: the loss terms, the
trainable groups and the domains that contribute batches all derive from it.

Checkpoint layout: magic "M2DN", format version as 4-byte little-endian
uint32, then each parameter in lexicographic path order as [path length u32,
UTF-8 path, rank u32, dims u32 each, raw float64 little-endian values].
Training checkpoints append one trailing UTF-8 JSON block carrying the model
spec, the run config (every HyperParams field but out_dir), step counter, and
epoch history, so a checkpoint is self-describing.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import re
import struct
import threading
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .data import Benchmark, epoch_batches
from .errors import (
    CorruptFile,
    InvalidSpec,
    MalformedCsv,
    MissingGradient,
    NonFiniteInput,
    NumericError,
    SpecMismatch,
    VersionMismatch,
)
from .layers import ParamSet
from .losses import HyperParams, total_objective
from .metrics import MetricsReport, evaluate
from .model import ModelBundle, forward, model_from_spec_dict, model_spec_dict
from .tensor import Tensor, reset_tape

MAGIC = b"M2DN"
FORMAT_VERSION = 1

_PATH_RE = re.compile(r"^[a-z][a-z0-9_.]*$")


@dataclass
class TrainState:
    model: ModelBundle
    hp: HyperParams
    step: int
    history: list[dict]
    report: MetricsReport | None = None  # last epoch's evaluation; not checkpointed


def sgd_step(params: Iterable[tuple[str, Tensor]], lr: float) -> None:
    """Plain SGD: p <- p - lr * grad(p); gradients are dropped afterwards."""
    for path, p in params:
        if p.grad is None:
            raise MissingGradient(f"parameter {path} reached sgd_step without a gradient")
        p.data -= lr * p.grad
        p.grad = None


def train(model: ModelBundle, benchmark: Benchmark, hp: HyperParams) -> TrainState:
    """Run the full training loop and per-epoch test evaluation; the returned
    state carries the last epoch's report.

    hp selects the loss terms and, for a source-only run, restricts batches
    to the source domain; evaluation always covers every domain. Only
    parameter groups that participate in the objective are stepped, so gd
    never moves unless the domain loss is on.
    """
    use_focal, use_domain, use_entropy = hp.use_focal, hp.use_domain, hp.use_entropy
    train_domains = hp.train_domains
    groups = ["gf", "gm", "gy"] + (["gd"] if use_domain else [])
    trainable = [(p, t) for p, t in model.params.items() if p.split(".")[0] in groups]
    state = TrainState(model=model, hp=hp, step=0, history=[])
    for epoch in range(hp.epochs):
        sums = {"l_fo": 0.0, "l_en": 0.0, "l_d": 0.0}
        n_batches = 0
        for batch in epoch_batches(benchmark, hp.batch_size, hp.seed, epoch,
                                   domains=train_domains):
            # not released in backward: freeing the activations before the next batch let glibc
            # trim the worker heaps; a 2-thread sweep on 2 cores went 1.4-1.7 -> 2.0-2.1 s a grid
            reset_tape()
            try:
                fwd = forward(model, batch.images, hp.grl, state.step, with_domain=use_domain)
                loss, parts = total_objective(
                    fwd, batch, hp,
                    use_focal=use_focal, use_domain=use_domain, use_entropy=use_entropy,
                )
            except NonFiniteInput as e:
                raise NumericError(f"step {state.step}: {e}") from e
            if not math.isfinite(loss.item()):
                raise NumericError(f"step {state.step}: loss is {loss.item()}")
            loss.backward()
            sgd_step(trainable, hp.lr)
            for k in sums:
                sums[k] += parts[k]
            n_batches += 1
            state.step += 1
        if n_batches == 0:
            raise InvalidSpec("training data is smaller than one batch")
        reset_tape()
        state.report = evaluate(model, benchmark)
        row = {"epoch": epoch}
        for k in ("l_fo", "l_en", "l_d"):
            row[k] = sums[k] / n_batches
        for d in state.report.domains:
            row[f"acc_{d.name}"] = d.accuracy
            row[f"auc_{d.name}"] = d.auc
        state.history.append(row)
    return state


# ---------------------------------------------------------------- artifact files


def write_atomic(path: Path, data: bytes) -> None:
    """Replace path with data so that a reader, or a run killed mid-write,
    sees the old file or the new one, never a partial one.

    The bytes go to a temp file in the same directory, are flushed to disk,
    and the temp file is then renamed over path.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# ---------------------------------------------------------------- history CSV


def history_columns(domain_names: Sequence[str]) -> list[str]:
    return ["epoch", "l_fo", "l_en", "l_d"] + [
        f"{metric}_{name}" for name in domain_names for metric in ("acc", "auc")
    ]


def write_history_csv(history: list[dict], domain_names: Sequence[str], path: Path) -> None:
    cols = history_columns(domain_names)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(cols)
    for row in history:
        writer.writerow([row["epoch"]] + [repr(float(row[c])) for c in cols[1:]])
    write_atomic(path, buf.getvalue().encode("utf-8"))


def read_history_csv(path: Path) -> tuple[list[str], list[dict]]:
    try:
        with open(path, newline="") as f:
            reader = csv.reader(f)
            rows = list(reader)
    except OSError as e:
        raise MalformedCsv(f"cannot read {path}: {e}") from e
    if len(rows) < 2:
        raise MalformedCsv(f"{path}: need a header and at least one epoch row")
    header = rows[0]
    if header[:4] != ["epoch", "l_fo", "l_en", "l_d"]:
        raise MalformedCsv(f"{path}: unexpected columns {header[:4]}")
    out = []
    for raw in rows[1:]:
        if len(raw) != len(header):
            raise MalformedCsv(f"{path}: ragged row {raw}")
        row = {"epoch": int(raw[0])}
        for name, val in zip(header[1:], raw[1:]):
            row[name] = float(val)
        out.append(row)
    return header, out


# ---------------------------------------------------------------- checkpoints


def _params_bytes(params: ParamSet) -> bytes:
    chunks = [MAGIC, struct.pack("<I", FORMAT_VERSION)]
    for path, p in params.items():
        encoded = path.encode("utf-8")
        chunks.append(struct.pack("<I", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<I", p.data.ndim))
        chunks.append(struct.pack(f"<{p.data.ndim}I", *p.data.shape))
        chunks.append(np.ascontiguousarray(p.data, dtype="<f8").tobytes())
    return b"".join(chunks)


def save_checkpoint(state: TrainState, path: Path) -> None:
    tail = {
        "model": model_spec_dict(state.model),
        # where the artifacts went is not part of the run: the same config
        # written to another directory yields the same checkpoint bytes
        "hp": {k: v for k, v in asdict(state.hp).items() if k != "out_dir"},
        "step": state.step,
        "history": state.history,
    }
    blob = _params_bytes(state.model.params) + json.dumps(
        tail, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    write_atomic(path, blob)


class _Reader:
    def __init__(self, raw: bytes, path):
        self.raw = raw
        self.pos = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.raw):
            raise CorruptFile(f"{self.path}: truncated at byte {self.pos}")
        out = self.raw[self.pos : self.pos + n]
        self.pos += n
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]


def _read_param_records(reader: _Reader) -> dict[str, np.ndarray]:
    params = {}
    raw = reader.raw
    while reader.pos < len(raw):
        if raw[reader.pos : reader.pos + 1] == b"{":
            break  # trailing JSON block
        plen = reader.u32()
        if plen == 0 or plen > 4096:
            raise CorruptFile(f"{reader.path}: implausible path length {plen}")
        try:
            name = reader.take(plen).decode("utf-8")
        except UnicodeDecodeError as e:
            raise CorruptFile(f"{reader.path}: undecodable parameter path") from e
        if not _PATH_RE.match(name):
            raise CorruptFile(f"{reader.path}: bad parameter path {name!r}")
        rank = reader.u32()
        if rank == 0 or rank > 8:
            raise CorruptFile(f"{reader.path}: implausible rank {rank} for {name}")
        dims = [reader.u32() for _ in range(rank)]
        count = int(np.prod(dims))
        data = np.frombuffer(reader.take(8 * count), dtype="<f8")
        params[name] = data.reshape(dims).astype(np.float64)
    return params


def load_checkpoint(path: Path, model_spec: dict | None = None) -> TrainState:
    """Rebuild a TrainState from disk.

    model_spec, when given, must match the spec embedded in the checkpoint;
    parameters must exactly cover the rebuilt model's paths and shapes.
    """
    raw = Path(path).read_bytes()
    if raw[:4] != MAGIC:
        raise CorruptFile(f"{path}: bad magic {raw[:4]!r}")
    reader = _Reader(raw, path)
    reader.pos = 4
    version = reader.u32()
    if version != FORMAT_VERSION:
        raise VersionMismatch(f"{path}: format version {version}, expected {FORMAT_VERSION}")
    params = _read_param_records(reader)
    if reader.pos >= len(raw):
        raise CorruptFile(f"{path}: missing training state block")
    try:
        tail = json.loads(raw[reader.pos :].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CorruptFile(f"{path}: unreadable training state block") from e
    embedded_spec = tail.get("model")
    if embedded_spec is None:
        raise CorruptFile(f"{path}: training state lacks a model spec")
    if model_spec is not None and model_spec != embedded_spec:
        raise SpecMismatch(f"{path}: checkpoint model spec differs from the requested one")
    try:
        model = model_from_spec_dict(embedded_spec, seed=0)
    except (KeyError, TypeError, ValueError, InvalidSpec) as e:
        raise CorruptFile(f"{path}: bad model spec: {e!r}") from e
    expected = model.params.paths()
    if sorted(params) != expected:
        raise SpecMismatch(
            f"{path}: parameter paths {sorted(params)[:3]}... do not match the model spec"
        )
    for name in expected:
        tensor = model.params[name]
        if params[name].shape != tensor.shape:
            raise SpecMismatch(
                f"{path}: {name} has shape {params[name].shape}, expected {tensor.shape}"
            )
        tensor.data[...] = params[name]
    try:
        return TrainState(model=model, hp=HyperParams(**tail["hp"]), step=int(tail["step"]),
                          history=tail["history"])
    except (KeyError, TypeError, ValueError, InvalidSpec) as e:
        raise CorruptFile(f"{path}: bad training state block: {e!r}") from e
