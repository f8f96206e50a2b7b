"""The dual memory: classifier slots for known concepts, centroid slots for candidates.

The memory streams rows of the corpus table it is attached to. Semantic slots
score whitened features with their whitened mean (see ``stats``), moved in
O(d) per absorbed region; the classifier is derived only when asked for, and
members are region ids. Working slots are cumulative-moving-average centroids
matched by cosine; their members are corpus rows, whose features consolidation
gathers. A slot's count is its number of members. Retrieval is a pure decision;
applying a decision is the only mutation path. Checkpoints are taken between
rounds, when working memory is empty, and hold the semantic slots.

The per-region path (``retrieve``, ``apply_decision``, ``process_image``,
``mine_region``) is written for few numpy calls per region, under one contract:
every float comes from the same operation on the same operands in the same order
as the straightforward code kept in ``tests/test_memory_hot_path.py``, so
decisions, scores and stored floats are bit-identical to it. Scores are summed
in place and norms taken as ``sqrt(v.dot(v))``, which is what
``np.linalg.norm`` computes for a vector. Regions are still scored one at a
time: a GEMM over an image's regions rounds differently from one GEMV per
region, by up to 2e-14, so a decision near a threshold could flip.
"""

from __future__ import annotations

import enum
import logging
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .config import Config, config_hash
from .records import RegionTable
from .stats import BackgroundStats, LinearClassifier, _expect_end, _read_exact, _read_floats, train_lda, whiten

logger = logging.getLogger(__name__)

CHECKPOINT_MAGIC = b"DMCK"
CHECKPOINT_VERSION = 3


class StaleDecisionError(RuntimeError):
    """A decision references a slot that no longer exists."""


class DecisionKind(enum.Enum):
    KNOWN_MATCH = "known_match"
    WORKING_MATCH = "working_match"
    NEW_SLOT = "new_slot"
    REJECTED = "rejected"


@dataclass(frozen=True, slots=True)
class RetrievalDecision:
    kind: DecisionKind
    slot_id: int | None
    score: float


@dataclass(eq=False)
class SemanticSlot:
    """A known or discovered category: positive mean, member ids, and the whitened mean that scores."""

    slot_id: int
    label: str
    mean: np.ndarray
    white: np.ndarray
    bg: BackgroundStats = field(repr=False)
    members: list[str] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.members)

    @property
    def offset(self) -> float:
        """The slot's score at the background mean: log(n / N) - |m|^2 / 2."""
        return float(np.log(self.count / self.bg.count) - 0.5 * (self.white @ self.white))

    @property
    def classifier(self) -> LinearClassifier:
        """The closed-form discriminant ``train_lda(mean, count, bg)``, derived when asked for."""
        return train_lda(self.mean, self.count, self.bg)


@dataclass(eq=False)
class WorkingSlot:
    """A candidate category: its members' corpus rows and the running centroid of their features."""

    slot_id: int
    centroid: np.ndarray
    rows: list[int] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.rows)


class DualMemory:
    """Single-writer store of semantic and working slots plus shared background stats.

    Slot lists stay sorted by slot_id, so argmax ties resolve to the oldest slot.
    Parallel score matrices mirror the lists for O(slots * d) retrieval; the
    working rows are preallocated to ``slot_cap``, the first ``len(working)`` live.
    """

    def __init__(self, bg: BackgroundStats, config: Config):
        if bg.d != config.d:
            raise ValueError(f"background dimension {bg.d} != configured dimension {config.d}")
        self.bg = bg
        self.config = config
        self.semantic: list[SemanticSlot] = []
        self.working: list[WorkingSlot] = []
        self.next_slot_id = 0
        self.rejected_count = 0
        self.corpus: RegionTable | None = None
        self.white: np.ndarray | None = None
        self.rebuild_caches()

    # -- construction -------------------------------------------------------

    @classmethod
    def initialize(
        cls,
        bg: BackgroundStats,
        config: Config,
        priors: Mapping[str, RegionTable] | None = None,
    ) -> "DualMemory":
        """Seed semantic memory with one slot per prior class; working memory starts empty.

        ``priors`` maps class label to its prior regions. Classes with no
        qualifying priors are skipped with a warning.
        """
        mem = cls(bg, config)
        priors = priors or {}
        if len(priors) > config.slot_cap:
            raise ValueError(f"{len(priors)} prior classes exceed the slot cap {config.slot_cap}")
        for label in sorted(label for label, regions in priors.items() if not len(regions)):
            logger.warning("class '%s' has no qualifying priors; skipping", label)
        labels = sorted(label for label, regions in priors.items() if len(regions))
        means = [priors[label].features.mean(axis=0) for label in labels]
        whites = whiten(np.stack(means), bg) if means else []
        for slot_id, (label, mean, white) in enumerate(zip(labels, means, whites)):
            members = list(priors[label].region_ids)
            mem.semantic.append(SemanticSlot(slot_id, label, mean, white, bg, members))
        mem.next_slot_id = len(mem.semantic)
        mem.rebuild_caches()
        return mem

    def attach(self, corpus: RegionTable, white: np.ndarray | None = None) -> None:
        """Stream rows of ``corpus`` from now on; ``white`` is its whitened feature matrix.

        ``white`` is computed here if not given. Working members are rows of the
        attached corpus, so the corpus can change only while working memory is empty.
        """
        if self.working and corpus is not self.corpus:
            raise ValueError(f"cannot attach a new corpus with {len(self.working)} working slots")
        self.corpus = corpus
        self.white = whiten(corpus.features, self.bg) if white is None else white

    @property
    def total_slots(self) -> int:
        return len(self.semantic) + len(self.working)

    def rebuild_caches(self) -> None:
        """Recompute the stacked score rows from the slot lists."""
        d, n = self.config.d, len(self.working)
        self._sem_white = np.reshape([s.white for s in self.semantic], (-1, d))
        self._sem_offset = np.array([s.offset for s in self.semantic])
        self._work_mu = np.zeros((max(n, self.config.slot_cap), d))
        self._work_mu[:n] = np.reshape([s.centroid for s in self.working], (-1, d))
        self._work_norm = np.zeros(len(self._work_mu))
        self._work_norm[:n] = np.linalg.norm(self._work_mu[:n], axis=1)
        self._sem_rows = {s.slot_id: i for i, s in enumerate(self.semantic)}
        self._work_rows = {s.slot_id: i for i, s in enumerate(self.working)}

    # -- retrieval ----------------------------------------------------------

    def retrieve(self, feature: np.ndarray, white: np.ndarray | None = None) -> RetrievalDecision:
        """Decide where a region belongs. Pure: the memory is not touched.

        Semantic memory is consulted first by classifier score, then working
        memory by cosine; a miss on both creates a slot unless the cap is hit.
        ``white`` is the whitened row of an already checked feature.
        """
        f = feature
        if white is None:
            f = np.asarray(feature, dtype=np.float64)
            if f.ndim != 1:
                raise ValueError(f"feature has shape {f.shape}, expected ({self.config.d},)")
            white = whiten(f, self.bg)
        cfg = self.config
        if self.semantic:
            scores = self._sem_white @ white
            scores += self._sem_offset
            best = int(scores.argmax())
            score = float(scores[best])
            if score >= cfg.tau_semantic:
                return RetrievalDecision(DecisionKind.KNOWN_MATCH, self.semantic[best].slot_id, score)
        best_cos = -1.0
        n = len(self.working)
        if n:
            denom = self._work_norm[:n] * math.sqrt(f.dot(f))
            sims = self._work_mu[:n] @ f
            if denom.min() > 0.0:
                sims /= denom
            else:
                if np.any(denom == 0.0):
                    logger.warning("degenerate zero-norm centroid or feature during retrieval")
                sims = np.where(denom > 0.0, sims / np.where(denom > 0.0, denom, 1.0), 0.0)
            sims.clip(-1.0, 1.0, out=sims)
            best = int(sims.argmax())
            best_cos = float(sims[best])
            if best_cos >= cfg.tau_working:
                return RetrievalDecision(DecisionKind.WORKING_MATCH, self.working[best].slot_id, best_cos)
        if len(self.semantic) + n >= cfg.slot_cap:
            return RetrievalDecision(DecisionKind.REJECTED, None, best_cos)
        return RetrievalDecision(DecisionKind.NEW_SLOT, None, best_cos)

    # -- updates ------------------------------------------------------------

    def _update_semantic_slot(self, slot_id: int, row: int) -> None:
        index = self._sem_rows.get(slot_id)
        if index is None:
            raise StaleDecisionError(f"semantic slot {slot_id} no longer exists")
        self._absorb_semantic(index, row)

    def _absorb_semantic(self, index: int, row: int) -> None:
        """Move semantic slot ``index``'s means and score row to take in corpus row ``row``."""
        slot = self.semantic[index]
        n = len(slot.members) + 1
        mean = self.corpus.features[row] - slot.mean
        mean /= n
        mean += slot.mean
        white = self.white[row] - slot.white
        white /= n
        white += slot.white
        slot.mean, slot.white = mean, white
        slot.members.append(self.corpus.region_ids[row])
        self._sem_white[index] = white
        self._sem_offset[index] = np.log(n / self.bg.count) - 0.5 * (white @ white)

    def apply_decision(self, decision: RetrievalDecision, row: int) -> None:
        """Mutate the memory according to a decision :meth:`retrieve` made for corpus row ``row``."""
        kind = decision.kind
        if kind is DecisionKind.REJECTED:
            self.rejected_count += 1
            return
        if kind is DecisionKind.KNOWN_MATCH:
            self._update_semantic_slot(decision.slot_id, row)
            return
        feature = self.corpus.features[row]
        if kind is DecisionKind.WORKING_MATCH:
            index = self._work_rows.get(decision.slot_id)
            if index is None:
                raise StaleDecisionError(f"working slot {decision.slot_id} no longer exists")
            slot = self.working[index]
            centroid = feature - slot.centroid
            centroid /= len(slot.rows) + 1
            centroid += slot.centroid
            slot.centroid = centroid
            slot.rows.append(row)
        else:
            centroid = feature.copy()
            slot = WorkingSlot(self.next_slot_id, centroid, [row])
            self.next_slot_id += 1
            index = len(self.working)
            self.working.append(slot)
            self._work_rows[slot.slot_id] = index
            if index == len(self._work_mu):  # a raised slot_cap, or a stale NEW_SLOT applied at the cap
                self.rebuild_caches()
        self._work_mu[index] = centroid
        self._work_norm[index] = math.sqrt(centroid.dot(centroid))

    def process_image(self, rows: Iterable[int]) -> list[RetrievalDecision]:
        """Retrieve-then-apply each corpus row in order; later rows see earlier updates."""
        features, white = self.corpus.features, self.white
        retrieve, apply_decision = self.retrieve, self.apply_decision
        decisions = []
        for row in rows:
            decision = retrieve(features[row], white[row])
            apply_decision(decision, row)
            decisions.append(decision)
        return decisions

    def mine_region(self, row: int) -> bool:
        """Validation-phase matching of a corpus row: accept into semantic memory only, never create slots."""
        if not self.semantic:
            return False
        scores = self._sem_white @ self.white[row]
        scores += self._sem_offset
        best = int(scores.argmax())
        if scores[best] < self.config.tau_semantic:
            return False
        self._absorb_semantic(best, row)
        return True

    # -- checkpointing ------------------------------------------------------

    def save_checkpoint(self, path: str | Path) -> None:
        """Binary dump sufficient to reproduce every subsequent decision and score, bit for bit.

        Only an empty working memory can be saved: checkpoints are taken between
        rounds, after consolidation, so they hold no member features.
        """
        if self.working:
            raise ValueError(f"cannot checkpoint with {len(self.working)} working slots; consolidate first")
        with open(path, "wb") as fh:
            fh.write(struct.pack("<4sII", CHECKPOINT_MAGIC, CHECKPOINT_VERSION, self.config.d))
            fh.write(bytes.fromhex(config_hash(self.config)))
            fh.write(struct.pack("<QQ", self.next_slot_id, self.rejected_count))
            fh.write(self.bg.mean.astype("<f8").tobytes())
            fh.write(np.ascontiguousarray(self.bg.covariance, dtype="<f8").tobytes())
            fh.write(struct.pack("<Q", self.bg.count))
            fh.write(struct.pack("<I", len(self.semantic)))
            for slot in self.semantic:
                fh.write(struct.pack("<Q", slot.slot_id))
                _write_str(fh, slot.label)
                fh.write(slot.mean.astype("<f8").tobytes())
                fh.write(slot.white.astype("<f8").tobytes())
                _write_str_list(fh, slot.members)

    @classmethod
    def load_checkpoint(cls, path: str | Path, config: Config) -> "DualMemory":
        """The memory a checkpoint holds; every error is a ValueError that starts with the file name."""
        with open(path, "rb") as fh:
            magic, version, d = struct.unpack("<4sII", _read_exact(fh, 12, "header"))
            if magic != CHECKPOINT_MAGIC:
                raise ValueError(f"{path}: bad magic {magic!r} in checkpoint")
            if version != CHECKPOINT_VERSION:
                raise ValueError(f"{path}: unsupported checkpoint version {version}")
            stored_hash = _read_exact(fh, 32, "config hash").hex()
            if stored_hash != config_hash(config):
                raise ValueError(f"{path}: checkpoint was written under a different configuration")
            if d != config.d:
                raise ValueError(f"{path}: checkpoint dimension {d} != configured dimension {config.d}")
            next_slot_id, rejected = struct.unpack("<QQ", _read_exact(fh, 16, "counters"))
            bg_mean = _read_floats(fh, d, "background mean")
            bg_cov = _read_floats(fh, d * d, "background covariance").reshape(d, d)
            (bg_count,) = struct.unpack("<Q", _read_exact(fh, 8, "background count"))
            try:
                bg = BackgroundStats.from_moments(bg_mean, bg_cov, bg_count)
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from exc
            mem = cls(bg, config)
            mem.next_slot_id = next_slot_id
            mem.rejected_count = rejected
            (n_sem,) = struct.unpack("<I", _read_exact(fh, 4, "semantic slot count"))
            for _ in range(n_sem):
                (slot_id,) = struct.unpack("<Q", _read_exact(fh, 8, "slot id"))
                label = _read_str(fh)
                mean = _read_floats(fh, d, "slot mean")
                white = _read_floats(fh, d, "slot whitened mean")
                members = _read_str_list(fh)
                if not members:
                    raise ValueError(f"{path}: semantic slot {slot_id} has no members")
                with np.errstate(over="ignore"):
                    scorable = np.isfinite(mean).all() and np.isfinite(white).all() and np.isfinite(white @ white)
                if not scorable:
                    raise ValueError(f"{path}: semantic slot {slot_id} has a mean that cannot be scored")
                mem.semantic.append(SemanticSlot(slot_id, label, mean, white, bg, members))
            _expect_end(fh)
        mem.rebuild_caches()
        return mem


def _write_str(fh, value: str) -> None:
    raw = value.encode("utf-8")
    fh.write(struct.pack("<I", len(raw)))
    fh.write(raw)


def _read_str(fh) -> str:
    (n,) = struct.unpack("<I", _read_exact(fh, 4, "string length"))
    offset = fh.tell()
    try:
        return _read_exact(fh, n, "string").decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{fh.name}: string at byte {offset}: {exc}") from exc


def _write_str_list(fh, values: Iterable[str]) -> None:
    values = list(values)
    fh.write(struct.pack("<I", len(values)))
    for v in values:
        _write_str(fh, v)


def _read_str_list(fh) -> list[str]:
    (n,) = struct.unpack("<I", _read_exact(fh, 4, "list length"))
    return [_read_str(fh) for _ in range(n)]
