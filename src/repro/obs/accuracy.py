"""Prediction-accuracy telemetry: predicted vs actual transfer times.

The paper's decisions (hetero-split ratios, rail discards, idle-time
prediction) are only as good as the sampled estimator behind them.  This
module pairs every completed data chunk's *predicted* transfer time with
the *actual* simulated one and accumulates per-rail / per-size-bucket
error distributions.

Two error series per chunk:

* **transfer** — pure service time: the planning estimator's
  ``transfer_time(size, mode)`` against ``t_complete − t_service_start``
  (the chunk's own pipeline, measured from the instant the send core
  actually started on it).  On a fault-free run the estimator is exact
  in simulation at sampling-grid sizes, so this error is ~0.
* **completion** — the absolute predicted completion (busy offset
  included, the Fig. 2 quantity) against ``t_complete``.  Queueing and
  cross-chunk CPU serialization show up here.

Size buckets are power-of-two aligned (the sampling grid), so bucket
membership is deterministic.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.util.units import format_size


#: bit length -> the label of the power-of-two bucket of that length
_POW2_LABELS: Dict[int, str] = {}


def size_bucket(size: int) -> str:
    """Power-of-two bucket label for a chunk size (``"1M"`` holds sizes
    in ``[1M, 2M)``); sampling-grid sizes sit exactly on a bucket edge."""
    if size <= 0:
        return "0B"
    bits = size.bit_length()
    label = _POW2_LABELS.get(bits)
    if label is None:
        label = _POW2_LABELS[bits] = format_size(1 << (bits - 1))
    return label


class ErrorStats:
    """Streaming aggregate of one (predicted, actual) error series."""

    __slots__ = (
        "count", "sum_predicted", "sum_actual",
        "sum_rel_error", "sum_abs_rel_error", "max_abs_error",
    )

    def __init__(self) -> None:
        self.count = 0
        self.sum_predicted = 0.0
        self.sum_actual = 0.0
        self.sum_rel_error = 0.0
        self.sum_abs_rel_error = 0.0
        self.max_abs_error = 0.0

    def add(self, predicted: float, actual: float) -> None:
        self.count += 1
        self.sum_predicted += predicted
        self.sum_actual += actual
        err = actual - predicted
        rel = err / predicted if predicted > 0.0 else 0.0
        self.sum_rel_error += rel
        self.sum_abs_rel_error += abs(rel)
        if abs(err) > self.max_abs_error:
            self.max_abs_error = abs(err)

    @property
    def mean_rel_error(self) -> float:
        return self.sum_rel_error / self.count if self.count else 0.0

    @property
    def mean_abs_rel_error(self) -> float:
        return self.sum_abs_rel_error / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean_predicted_us": (
                self.sum_predicted / self.count if self.count else 0.0
            ),
            "mean_actual_us": self.sum_actual / self.count if self.count else 0.0,
            "mean_rel_error": self.mean_rel_error,
            "mean_abs_rel_error": self.mean_abs_rel_error,
            "max_abs_error_us": self.max_abs_error,
        }


class PredictionAccuracy:
    """Cluster-wide accumulator, keyed by sending rail (qualified name)."""

    __slots__ = ("_transfer", "_completion", "_buckets", "samples")

    def __init__(self) -> None:
        self._transfer: Dict[str, ErrorStats] = {}
        self._completion: Dict[str, ErrorStats] = {}
        #: (rail, bucket-label) -> transfer-time error stats
        self._buckets: Dict[str, Dict[str, ErrorStats]] = {}
        self.samples = 0

    def __repr__(self) -> str:
        return f"<PredictionAccuracy {self.samples} samples, {len(self._transfer)} rails>"

    def record(
        self,
        rail: str,
        size: int,
        predicted: float,
        actual: float,
        predicted_completion: Optional[float] = None,
        actual_completion: Optional[float] = None,
    ) -> None:
        self.samples += 1
        stats = self._transfer.get(rail)
        if stats is None:
            stats = self._transfer[rail] = ErrorStats()
            self._buckets[rail] = {}
        stats.add(predicted, actual)
        buckets = self._buckets[rail]
        label = size_bucket(size)
        bucket = buckets.get(label)
        if bucket is None:
            bucket = buckets[label] = ErrorStats()
        bucket.add(predicted, actual)
        if predicted_completion is not None and actual_completion is not None:
            comp = self._completion.get(rail)
            if comp is None:
                comp = self._completion[rail] = ErrorStats()
            comp.add(predicted_completion, actual_completion)

    def on_arrival(self, transfer, nic) -> None:
        """Hook subscriber (repro.obs.hooks): pair a fully-processed
        chunk's stamped prediction with what it actually took."""
        if transfer.predicted_time is None or transfer.t_complete is None:
            return
        start = (
            transfer.t_service_start
            if transfer.t_service_start is not None
            else transfer.t_submit
        )
        self.record(
            transfer.nic_name or nic.qualified_name,
            transfer.size,
            transfer.predicted_time,
            transfer.t_complete - start,
            transfer.predicted_completion,
            transfer.t_complete,
        )

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    def rails(self):
        return sorted(self._transfer)

    def rail_stats(self, rail: str) -> Optional[ErrorStats]:
        return self._transfer.get(rail)

    def snapshot(self) -> Dict[str, object]:
        """Deterministic (name-sorted) dump of every error series."""
        return {
            "samples": self.samples,
            "per_rail": {
                rail: {
                    "transfer": self._transfer[rail].to_dict(),
                    "completion": (
                        self._completion[rail].to_dict()
                        if rail in self._completion
                        else None
                    ),
                }
                for rail in sorted(self._transfer)
            },
            "per_bucket": {
                rail: {
                    label: stats.to_dict()
                    for label, stats in sorted(self._buckets[rail].items())
                }
                for rail in sorted(self._buckets)
            },
        }

    def report(self) -> str:
        """Fixed-width table: per-rail, then per-(rail, size-bucket)."""
        if not self.samples:
            return "prediction accuracy: no samples recorded"
        lines = [f"prediction accuracy ({self.samples} chunks):"]
        header = (
            f"  {'rail':<20} {'bucket':>7} {'n':>5} {'pred us':>12} "
            f"{'actual us':>12} {'rel err':>12} {'|rel err|':>12}"
        )
        lines.append(header)
        lines.append("  " + "-" * (len(header) - 2))
        for rail in sorted(self._transfer):
            s = self._transfer[rail]
            lines.append(
                f"  {rail:<20} {'all':>7} {s.count:>5} "
                f"{s.sum_predicted / s.count:>12.4f} "
                f"{s.sum_actual / s.count:>12.4f} "
                f"{s.mean_rel_error:>12.3e} {s.mean_abs_rel_error:>12.3e}"
            )
            for label, b in sorted(self._buckets.get(rail, {}).items()):
                lines.append(
                    f"  {'':<20} {label:>7} {b.count:>5} "
                    f"{b.sum_predicted / b.count:>12.4f} "
                    f"{b.sum_actual / b.count:>12.4f} "
                    f"{b.mean_rel_error:>12.3e} {b.mean_abs_rel_error:>12.3e}"
                )
        comp_rails = sorted(self._completion)
        if comp_rails:
            lines.append("completion-time accuracy (busy offsets included):")
            for rail in comp_rails:
                c = self._completion[rail]
                lines.append(
                    f"  {rail:<20} {'all':>7} {c.count:>5} "
                    f"{c.sum_predicted / c.count:>12.4f} "
                    f"{c.sum_actual / c.count:>12.4f} "
                    f"{c.mean_rel_error:>12.3e} {c.mean_abs_rel_error:>12.3e}"
                )
        return "\n".join(lines)
