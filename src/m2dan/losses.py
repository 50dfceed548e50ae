"""Training objective: focal classification, target entropy, domain loss.

All losses consume probability rows (softmax outputs) and exact one-hot
labels, return shape-[1] tensors, and rely on the clamped log so that
0 * log(0) contributes nothing.

The assembled objective is lambda * (L_focal + eta * L_entropy) + L_domain.
The gradient-reversal layer inside the forward pass handles the adversarial
sign flip: the discriminator descends the domain loss while the feature
extractor and multi-scale branches ascend alpha times it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Any

import numpy as np

from .data import DEFAULT_FRACTION, HALF_MODES
from .errors import InvalidSpec, NotOneHot, ShapeMismatch
from .layers import GrlCoeff
from .model import SCALE_VARIANTS
from .tensor import Tensor, add, constant, log, mul, pow_scalar, sub, take_rows, tensor_sum


CLASS_LOSSES = ("ce", "focal")


@dataclass(frozen=True)
class HyperParams:
    """The whole run config: what `m2dan train` parses, `train` consumes and a
    checkpoint embeds. The defaults are the trained configuration."""

    alpha: float = 0.03  # GRL coefficient
    lam: float = 1.0  # weight of the classification term
    eta: float = 0.1  # weight of the entropy term
    gamma: float = 2.0  # focal exponent
    lr: float = 0.001
    epochs: int = 30
    batch_size: int = 12
    seed: int = 42  # model init + batch shuffling
    grl_mode: str = "constant"
    grl_ramp_length: int | None = None
    scale: str = "mixed"  # key of model.SCALE_VARIANTS
    class_loss: str = "focal"
    domain_loss: bool = True
    entropy_loss: bool = True
    source_only: bool = False  # train on source batches with the class loss alone
    data_dir: str | None = None  # exported PGM tree instead of a synthetic benchmark
    data_seed: int = 42
    scale_fraction: float = DEFAULT_FRACTION
    image_size: int = 64
    half: str = "none"
    out_dir: str = "out"

    def __post_init__(self):
        if self.lam < 0 or self.eta < 0 or self.gamma < 0:
            raise InvalidSpec("loss weights and gamma must be >= 0")
        if self.lr <= 0:
            raise InvalidSpec(f"lr must be > 0, got {self.lr}")
        if self.epochs < 1 or self.batch_size < 1:
            raise InvalidSpec("epochs and batch_size must be >= 1")
        self.grl  # validates grl_mode / alpha / ramp_length
        for name, options in (("scale", tuple(SCALE_VARIANTS)), ("class_loss", CLASS_LOSSES),
                              ("half", HALF_MODES)):
            if getattr(self, name) not in options:
                raise InvalidSpec(f"{name} must be one of {', '.join(options)}, "
                                  f"got {getattr(self, name)!r}")

    @property
    def grl(self) -> GrlCoeff:
        return GrlCoeff(self.grl_mode, self.alpha, self.grl_ramp_length)

    @property
    def use_focal(self) -> bool:
        return self.class_loss == "focal"

    @property
    def use_domain(self) -> bool:
        return self.domain_loss and not self.source_only

    @property
    def use_entropy(self) -> bool:
        return self.entropy_loss and not self.source_only

    @property
    def train_domains(self) -> tuple[int, ...] | None:
        """Domains that contribute batches; None means all of them."""
        return (0,) if self.source_only else None


def _label_array(labels) -> np.ndarray:
    return np.asarray(getattr(labels, "data", labels), dtype=np.float64)


def _check_one_hot(labels: np.ndarray, what: str) -> None:
    if labels.ndim != 2:
        raise ShapeMismatch(f"{what} labels must be rank 2, got shape {labels.shape}")
    binary = (labels == 0.0) | (labels == 1.0)
    if not np.all(binary) or not np.all(labels.sum(axis=1) == 1.0):
        raise NotOneHot(f"{what} labels must be exact one-hot rows")


def domain_loss(d_hat: Tensor, d) -> Tensor:
    """Cross-entropy of predicted domain probabilities against one-hot domains,
    averaged over all rows (source and target alike)."""
    labels = _label_array(d)
    if d_hat.shape != labels.shape:
        raise ShapeMismatch(f"domain probs {d_hat.shape} vs labels {labels.shape}")
    _check_one_hot(labels, "domain")
    n = d_hat.shape[0]
    picked = mul(log(d_hat), constant(labels))
    return mul(tensor_sum(picked), -1.0 / n)


def focal_loss(y_hat: Tensor, y, gamma: float) -> Tensor:
    """Class loss with the (1 - p)^gamma modulation; gamma = 0 reduces it to
    plain cross-entropy. Averaged over the (labeled) rows it receives."""
    if gamma < 0:
        raise InvalidSpec(f"gamma must be >= 0, got {gamma}")
    labels = _label_array(y)
    if y_hat.shape != labels.shape:
        raise ShapeMismatch(f"class probs {y_hat.shape} vs labels {labels.shape}")
    _check_one_hot(labels, "class")
    n = y_hat.shape[0]
    ones = constant(np.ones(y_hat.shape))
    modulation = pow_scalar(sub(ones, y_hat), gamma)
    picked = mul(mul(modulation, log(y_hat)), constant(labels))
    return mul(tensor_sum(picked), -1.0 / n)


def entropy_loss(y_hat: Tensor) -> Tensor:
    """Mean Shannon entropy of prediction rows; pushes predictions to commit."""
    if y_hat.data.ndim != 2:
        raise ShapeMismatch(f"entropy needs [n, C] probabilities, got {y_hat.shape}")
    n = y_hat.shape[0]
    return mul(tensor_sum(mul(y_hat, log(y_hat))), -1.0 / n)


def classification_loss(focal: Tensor, entropy: Tensor, eta: float) -> Tensor:
    """Combined class objective: focal + eta * entropy."""
    return add(focal, mul(entropy, float(eta)))


def total_objective(fwd, batch, hp: HyperParams, *, use_focal: bool = True,
                    use_domain: bool = True, use_entropy: bool = True):
    """Assemble the full training loss for one batch.

    fwd: forward result carrying class_probs and per-branch domain_probs.
    batch: carries one-hot class labels for its source rows and one-hot
    domain labels for every row.

    Returns (loss tensor, {"l_fo", "l_en", "l_d"} floats for logging).
    Toggles drop terms entirely: use_focal=False degrades to cross-entropy,
    use_entropy / use_domain remove those terms from the objective.
    """
    gamma = hp.gamma if use_focal else 0.0
    src_probs = take_rows(fwd.class_probs, batch.source_rows)
    l_fo = focal_loss(src_probs, batch.class_labels, gamma)
    parts = {"l_fo": l_fo.item(), "l_en": 0.0, "l_d": 0.0}
    loss_c = l_fo
    if use_entropy:
        l_en = entropy_loss(fwd.class_probs)
        parts["l_en"] = l_en.item()
        loss_c = classification_loss(l_fo, l_en, hp.eta)
    total = mul(loss_c, float(hp.lam))
    if use_domain:
        if not fwd.domain_probs:
            raise InvalidSpec("domain loss requested but forward ran without the domain head")
        per_branch = [domain_loss(dp, batch.domain_labels) for dp in fwd.domain_probs]
        l_d = mul(reduce(add, per_branch), 1.0 / len(per_branch))
        parts["l_d"] = l_d.item()
        total = add(total, l_d)
    return total, parts
