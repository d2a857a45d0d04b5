"""Feature/label dataset container.

Couples the per-flip-flop feature matrix with the per-flip-flop FDR labels
from a fault campaign, in a fixed flip-flop order, with JSON
persistence.  This is the object handed to the ML layer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

__all__ = ["Dataset"]


@dataclass
class Dataset:
    """Per-flip-flop features ``X`` and FDR labels ``y``.

    Attributes
    ----------
    ff_names:
        Row order of the matrix.
    feature_names:
        Column order.
    X:
        float64 matrix of shape ``(n_ffs, n_features)``.
    y:
        float64 vector of FDR labels in ``[0, 1]``.
    groups:
        Optional mapping of feature-group name (``structural``,
        ``synthesis``, ``dynamic``) to column names, used by ablations.
    meta:
        Free-form provenance (circuit, injections, seeds, …).
    """

    ff_names: List[str]
    feature_names: List[str]
    X: np.ndarray
    y: np.ndarray
    groups: Dict[str, List[str]] = field(default_factory=dict)
    meta: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.X = np.asarray(self.X, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.float64)
        if self.X.shape != (len(self.ff_names), len(self.feature_names)):
            raise ValueError(
                f"X shape {self.X.shape} does not match "
                f"{len(self.ff_names)} rows x {len(self.feature_names)} columns"
            )
        if self.y.shape != (len(self.ff_names),):
            raise ValueError("y length does not match the number of flip-flops")

    @property
    def n_samples(self) -> int:
        return len(self.ff_names)

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    # ----------------------------------------------------------- selection

    def column(self, feature: str) -> np.ndarray:
        return self.X[:, self.feature_names.index(feature)]

    def select_features(self, names: Sequence[str]) -> "Dataset":
        """Dataset restricted to the given feature columns."""
        idx = [self.feature_names.index(n) for n in names]
        groups = {
            g: [n for n in cols if n in names] for g, cols in self.groups.items()
        }
        return Dataset(
            ff_names=list(self.ff_names),
            feature_names=list(names),
            X=self.X[:, idx].copy(),
            y=self.y.copy(),
            groups={g: cols for g, cols in groups.items() if cols},
            meta=dict(self.meta),
        )

    def select_groups(self, group_names: Sequence[str]) -> "Dataset":
        """Dataset restricted to the named feature groups."""
        names: List[str] = []
        for group in group_names:
            names.extend(self.groups[group])
        return self.select_features(names)

    def subset(self, row_indices: Sequence[int]) -> "Dataset":
        idx = list(row_indices)
        return Dataset(
            ff_names=[self.ff_names[i] for i in idx],
            feature_names=list(self.feature_names),
            X=self.X[idx].copy(),
            y=self.y[idx].copy(),
            groups=dict(self.groups),
            meta=dict(self.meta),
        )

    # --------------------------------------------------------- persistence

    def to_json(self) -> str:
        return json.dumps(
            {
                "ff_names": self.ff_names,
                "feature_names": self.feature_names,
                "X": self.X.tolist(),
                "y": self.y.tolist(),
                "groups": self.groups,
                "meta": self.meta,
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "Dataset":
        payload = json.loads(text)
        return cls(
            ff_names=payload["ff_names"],
            feature_names=payload["feature_names"],
            X=np.array(payload["X"], dtype=np.float64),
            y=np.array(payload["y"], dtype=np.float64),
            groups=payload.get("groups", {}),
            meta=payload.get("meta", {}),
        )
