"""The dual memory: classifier slots for known concepts, centroid slots for candidates.

A memory is built on one corpus table, whitened once in the constructor (see
``stats``), so a row names the same region for the memory's whole life. Every
slot's members are corpus rows, kept with multiplicity. A semantic slot keeps one
state, its whitened mean, moved in O(d) per absorbed row; its raw mean and
classifier are derived on request, and its count adds ``external`` prior members
that the corpus lacks. Working slots are cumulative-moving-average centroids
matched by cosine. Retrieval is a pure decision; applying a decision is the only
mutation path. Checkpoints are taken between rounds and hold the semantic slots.

The per-region path (``retrieve``, ``apply_decision``, ``process_image``,
``mine_region``) is written for few numpy calls per region, under one contract:
every float comes from the same operation on the same operands in the same order
as the straightforward code kept in ``tests/test_memory_hot_path.py``, so
decisions, scores and stored floats are bit-identical to it. Products are
taken with ``ndarray.dot``, which reaches the BLAS call that ``@`` does on the
same buffers with less dispatch; scores are summed in place and norms taken as
``sqrt(v.dot(v))``, which is what ``np.linalg.norm`` computes for a vector.
Cosines are clipped to [-1, 1] only when their maximum lies outside (-1, 1],
the one case where clipping can move the argmax. Regions are still scored one
at a time: a GEMM over an image's regions rounds differently from one GEMV per
region, by up to 2e-14, so a decision near a threshold could flip.
"""

from __future__ import annotations

import enum
import hashlib
import itertools
import logging
import math
import re
import struct
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Mapping

import numpy as np

from .config import Config, config_hash
from .records import RegionTable
from .reporting import UNASSIGNED
from .stats import BackgroundStats, LinearClassifier, _expect_end, _read_exact, _read_floats, train_lda, whiten

logger = logging.getLogger(__name__)

CHECKPOINT_MAGIC = b"DMCK"
CHECKPOINT_VERSION = 6
_U32 = struct.Struct("<I")


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
    """A known or discovered category: its members' whitened mean, their corpus rows, and its external members."""

    slot_id: int
    label: str
    white: np.ndarray
    bg: BackgroundStats = field(repr=False)
    rows: list[int]
    external: int = 0

    @property
    def count(self) -> int:
        return len(self.rows) + self.external

    @property
    def mean(self) -> np.ndarray:
        """The members' mean feature, ``mean_bg + L m``: the whitened mean mapped back."""
        return self.bg.mean + self.bg.chol_lower @ self.white

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

    def __init__(self, bg: BackgroundStats, config: Config, corpus: RegionTable):
        if bg.d != config.d:
            raise ValueError(f"background dimension {bg.d} != configured dimension {config.d}")
        self.bg = bg
        self.config = config
        self.corpus = corpus
        self.white = whiten(corpus.features, bg)
        self.semantic: list[SemanticSlot] = []
        self.working: list[WorkingSlot] = []
        self.next_slot_id = 0
        self.rejected_count = 0
        self.rebuild_caches()

    # -- construction -------------------------------------------------------

    @classmethod
    def initialize(
        cls,
        bg: BackgroundStats,
        config: Config,
        corpus: RegionTable,
        priors: Mapping[str, RegionTable] | None = None,
    ) -> "DualMemory":
        """A memory on ``corpus`` with one semantic slot per prior class; working memory starts empty.

        ``priors`` maps class label to its prior regions. A prior's member is the
        corpus row of its region id, or an external member if the corpus lacks
        that id. Classes with no qualifying priors are skipped with a warning, and
        only the others count against the slot cap. A label that the run writes
        for its own rows, ``unassigned`` or a discovered ``disc_<round>_<n>``, is refused.
        """
        mem = cls(bg, config, corpus)
        priors = priors or {}
        labels = sorted(label for label, regions in priors.items() if len(regions))
        for label in labels:
            if label == UNASSIGNED or re.fullmatch(r"disc_[0-9]+_[0-9]+", label):
                raise ValueError(f"prior class {label!r} takes a label reserved for unassigned and discovered rows")
        if len(labels) > config.slot_cap:
            raise ValueError(f"{len(labels)} prior classes exceed the slot cap {config.slot_cap}")
        for label in sorted(set(priors) - set(labels)):
            logger.warning("class '%s' has no qualifying priors; skipping", label)
        means = [priors[label].features.mean(axis=0) for label in labels]
        whites = whiten(np.stack(means), bg) if means else []
        row_of = {region_id: row for row, region_id in enumerate(corpus.region_ids)}
        for slot_id, (label, white) in enumerate(zip(labels, whites)):
            ids = priors[label].region_ids
            rows = [row_of[region_id] for region_id in ids if region_id in row_of]
            mem.semantic.append(SemanticSlot(slot_id, label, white, bg, rows, len(ids) - len(rows)))
        mem.next_slot_id = len(mem.semantic)
        mem.rebuild_caches()
        return mem

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
            scores = self._sem_white.dot(white)
            scores += self._sem_offset
            best = int(scores.argmax())
            score = float(scores[best])
            if score >= cfg.tau_semantic:
                return RetrievalDecision(DecisionKind.KNOWN_MATCH, self.semantic[best].slot_id, score)
        best_cos = -1.0
        n = len(self.working)
        if n:
            denom = self._work_norm[:n] * math.sqrt(f.dot(f))
            sims = self._work_mu[:n].dot(f)
            if denom.min() > 0.0:
                sims /= denom
            else:
                if np.any(denom == 0.0):
                    logger.warning("degenerate zero-norm centroid or feature during retrieval")
                sims = np.where(denom > 0.0, sims / np.where(denom > 0.0, denom, 1.0), 0.0)
            best = int(sims.argmax())
            best_cos = float(sims[best])
            if not -1.0 < best_cos <= 1.0:  # only here can clipping to [-1, 1] move the argmax
                sims.clip(-1.0, 1.0, out=sims)
                best = int(sims.argmax())
                best_cos = float(sims[best])
            if best_cos >= cfg.tau_working:
                return RetrievalDecision(DecisionKind.WORKING_MATCH, self.working[best].slot_id, best_cos)
        if len(self.semantic) + n >= cfg.slot_cap:
            return RetrievalDecision(DecisionKind.REJECTED, None, best_cos)
        return RetrievalDecision(DecisionKind.NEW_SLOT, None, best_cos)

    # -- updates ------------------------------------------------------------

    def _absorb_semantic(self, index: int, row: int) -> None:
        """Move semantic slot ``index``'s whitened mean and score row to take in corpus row ``row``."""
        slot = self.semantic[index]
        n = slot.count + 1
        white = self.white[row] - slot.white
        white /= n
        white += slot.white
        slot.white = white
        slot.rows.append(row)
        self._sem_white[index] = white
        self._sem_offset[index] = np.log(n / self.bg.count) - 0.5 * white.dot(white)

    def apply_decision(self, decision: RetrievalDecision, row: int) -> None:
        """Mutate the memory according to a decision :meth:`retrieve` made for corpus row ``row``."""
        kind = decision.kind
        if kind is DecisionKind.REJECTED:
            self.rejected_count += 1
            return
        if kind is DecisionKind.KNOWN_MATCH:
            index = self._sem_rows.get(decision.slot_id)
            if index is None:
                raise StaleDecisionError(f"semantic slot {decision.slot_id} no longer exists")
            self._absorb_semantic(index, row)
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
        scores = self._sem_white.dot(self.white[row])
        scores += self._sem_offset
        best = int(scores.argmax())
        if scores[best] < self.config.tau_semantic:
            return False
        self._absorb_semantic(best, row)
        return True

    # -- checkpointing ------------------------------------------------------

    @cached_property
    def corpus_digest(self) -> bytes:
        """``_corpus_digest`` of the memory's corpus, hashed once: the corpus never changes."""
        return _corpus_digest(self.corpus)

    def save_checkpoint(self, path: str | Path) -> None:
        """Binary dump sufficient to reproduce every subsequent decision and score, bit for bit.

        Only an empty working memory can be saved: checkpoints are taken between
        rounds, after consolidation, so they hold no member features. Members are
        stored as corpus rows; the config, corpus and background, as their digests.
        """
        if self.working:
            raise ValueError(f"cannot checkpoint with {len(self.working)} working slots; consolidate first")
        with open(path, "wb") as fh:
            fh.write(struct.pack("<4sII", CHECKPOINT_MAGIC, CHECKPOINT_VERSION, self.config.d))
            fh.write(bytes.fromhex(config_hash(self.config)) + self.corpus_digest + self.bg.digest)
            parts = [struct.pack("<QQI", self.next_slot_id, self.rejected_count, len(self.semantic))]
            for slot in self.semantic:
                parts.append(struct.pack("<Q", slot.slot_id))
                parts += _str_parts([slot.label])
                parts += (slot.white.astype("<f8").tobytes(), struct.pack("<II", slot.external, len(slot.rows)))
                parts.append(np.array(slot.rows, dtype="<u4").tobytes())
            fh.write(b"".join(parts))

    @classmethod
    def load_checkpoint(cls, path: str | Path, bg: BackgroundStats, config: Config, corpus: RegionTable) -> DualMemory:
        """The memory a checkpoint holds, on the inputs it was written with; each error starts with the file name."""
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
            if _read_exact(fh, 32, "corpus digest") != _corpus_digest(corpus):
                raise ValueError(f"{path}: checkpoint was written for a different corpus")
            if _read_exact(fh, 32, "background digest") != bg.digest:
                raise ValueError(f"{path}: checkpoint was written with a different background")
            next_slot_id, rejected, n_sem = struct.unpack("<QQI", _read_exact(fh, 20, "counters and slot count"))
            mem = cls(bg, config, corpus)
            mem.next_slot_id, mem.rejected_count = next_slot_id, rejected
            last = -1
            for _ in range(n_sem):
                (slot_id,) = struct.unpack("<Q", _read_exact(fh, 8, "slot id"))
                if not last < slot_id < next_slot_id:
                    raise ValueError(f"{path}: slot id {slot_id} must exceed {last} and be below {next_slot_id}")
                last = slot_id
                label = _read_str(fh)
                white = _read_floats(fh, d, "slot whitened mean")
                external, n_rows = struct.unpack("<II", _read_exact(fh, 8, "member counts"))
                rows = np.frombuffer(_read_exact(fh, 4 * n_rows, "member rows"), dtype="<u4")
                if not n_rows + external:
                    raise ValueError(f"{path}: semantic slot {slot_id} has no members")
                if n_rows and rows.max() >= len(corpus):
                    raise ValueError(f"{path}: semantic slot {slot_id} has row {rows.max()} of {len(corpus)} rows")
                # |m|^2 is finite only if every entry is and none overflows; a signalling NaN sets "invalid".
                with np.errstate(over="ignore", invalid="ignore"):
                    if not np.isfinite(white @ white):
                        raise ValueError(f"{path}: semantic slot {slot_id} has a mean that cannot be scored")
                mem.semantic.append(SemanticSlot(slot_id, label, white, mem.bg, rows.tolist(), external))
            _expect_end(fh)
        mem.rebuild_caches()
        return mem


def _corpus_digest(corpus: RegionTable) -> bytes:
    """The sha256 of the corpus's region ids in their stored form: a checkpoint's rows are rows of this corpus."""
    return hashlib.sha256(b"".join(_str_parts(corpus.region_ids))).digest()


def _str_parts(values: list[str]) -> Iterator[bytes]:
    """Strings as the checkpoint stores each: its UTF-8 byte count (u32), then the bytes."""
    raw = [value.encode("utf-8") for value in values]
    return itertools.chain.from_iterable(zip(map(_U32.pack, map(len, raw)), raw))


def _read_str(fh) -> str:
    (n,) = struct.unpack("<I", _read_exact(fh, 4, "string length"))
    offset = fh.tell()
    try:
        return _read_exact(fh, n, "string").decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{fh.name}: string at byte {offset}: {exc}") from exc
