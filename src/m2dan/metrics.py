"""Evaluation: accuracy, rank-based AUC, and the per-domain report.

AUC is the Mann-Whitney statistic computed from a single stable sort with
fractional midranks for ties, so tied score groups contribute 1/2 per pair.
The positive class is "narrow" (class index 0) throughout.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateLabels, EmptyInput, ShapeMismatch
from .model import ModelBundle, source_only_forward
from .tensor import Tensor, no_grad

POSITIVE_CLASS = 0  # "narrow"


def _array(x) -> np.ndarray:
    return np.asarray(getattr(x, "data", x), dtype=np.float64)


def accuracy(pred_probs, labels) -> float:
    """Fraction of rows whose argmax matches; ties break to the lower index."""
    p, y = _array(pred_probs), _array(labels)
    if p.ndim != 2 or p.shape != y.shape:
        raise ShapeMismatch(f"accuracy shapes: {p.shape} vs {y.shape}")
    if p.shape[0] == 0:
        raise EmptyInput("accuracy of zero samples")
    return float(np.mean(p.argmax(axis=1) == y.argmax(axis=1)))


def auc(scores, labels) -> float:
    """Area under the ROC curve for binary labels (1 = positive).

    Equivalent to the probability that a random positive outscores a random
    negative, counting ties as 1/2.
    """
    s = np.asarray(scores, dtype=np.float64).reshape(-1)
    y = np.asarray(labels).reshape(-1)
    if s.shape != y.shape:
        raise ShapeMismatch(f"auc got {s.size} scores and {y.size} labels")
    if s.size == 0:
        raise EmptyInput("auc of zero samples")
    n_pos = int(np.sum(y == 1))
    n_neg = s.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabels("auc needs both classes present")
    order = np.argsort(s, kind="stable")
    sorted_s = s[order]
    ranks = np.empty(s.size)
    i = 0
    while i < s.size:
        j = i
        while j < s.size and sorted_s[j] == sorted_s[i]:
            j += 1
        ranks[order[i:j]] = 0.5 * (i + j + 1)  # average of 1-based ranks i+1..j
        i = j
    rank_sum = float(ranks[y == 1].sum())
    u = rank_sum - n_pos * (n_pos + 1) / 2.0
    return u / (n_pos * n_neg)


@dataclass
class DomainMetrics:
    name: str
    n: int
    accuracy: float
    auc: float


@dataclass
class MetricsReport:
    """Per-domain test metrics. The source row is reported but excluded from
    the unweighted means, which cover the target domains only."""

    domains: list[DomainMetrics]
    mean_acc: float
    mean_auc: float

    def to_dict(self) -> dict:
        return {
            "domains": [
                {"name": d.name, "n": d.n, "accuracy": d.accuracy, "auc": d.auc}
                for d in self.domains
            ],
            "mean_acc": self.mean_acc,
            "mean_auc": self.mean_auc,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def predict_probs(model: ModelBundle, split, chunk: int = 32) -> np.ndarray:
    """Class probabilities for every row of a split, without recording
    gradients."""
    images = split.images
    with no_grad():
        rows = [source_only_forward(model, Tensor(images[start : start + chunk])).data
                for start in range(0, len(images), chunk)]
    return np.concatenate(rows, axis=0)


def evaluate(model: ModelBundle, benchmark) -> MetricsReport:
    """Run the classifier on every domain's test split."""
    domains = []
    for dataset in benchmark.domains:
        split = dataset.test
        if len(split) == 0:
            raise EmptyInput(f"domain {dataset.name} has no test samples")
        probs = predict_probs(model, split)
        labels = split.class_labels
        scores = probs[:, POSITIVE_CLASS]
        positives = (labels.argmax(axis=1) == POSITIVE_CLASS).astype(np.int64)
        domains.append(
            DomainMetrics(
                name=dataset.name,
                n=len(split),
                accuracy=accuracy(probs, labels),
                auc=auc(scores, positives),
            )
        )
    targets = domains[1:]
    mean_acc = float(np.mean([d.accuracy for d in targets])) if targets else float("nan")
    mean_auc = float(np.mean([d.auc for d in targets])) if targets else float("nan")
    return MetricsReport(domains=domains, mean_acc=mean_acc, mean_auc=mean_auc)
