"""Search-session journal: every evaluated config / estimate, archivable.

A :class:`SearchSession` records each evaluation a strategy performs (config
key, latency, resources, band / feasibility verdicts, whether the result came
from the cache) plus every accepted candidate.  Sessions serialise through
:mod:`repro.utils.serialization`, so they can be saved, diffed across runs
and compared across strategies.  Nothing time- or machine-dependent is
recorded: a same-seed, single-worker run produces a bit-identical journal on
every invocation.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.search.cache import CacheStats
from repro.utils.serialization import dump_json, load_json, to_jsonable

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.hw.analytical import PerformanceEstimate


@dataclass(frozen=True)
class EvaluationRecord:
    """One estimator request made by a strategy."""

    index: int
    strategy: str
    config: str
    latency_ms: float
    lut: float
    ff: float
    dsp: float
    bram: float
    within_band: bool
    feasible: bool
    cached: bool


@dataclass(frozen=True)
class CandidateRecord:
    """One accepted candidate (in band, feasible, first of its kind)."""

    index: int
    strategy: str
    config: str
    latency_ms: float


class SearchSession:
    """Append-only journal of one exploration run (or several, compared)."""

    def __init__(self, name: str = "search", metadata: Optional[dict] = None) -> None:
        self.name = name
        self.metadata: dict = dict(metadata or {})
        self.records: list[EvaluationRecord] = []
        self.candidates: list[CandidateRecord] = []
        self.cache_stats: Optional[CacheStats] = None

    # --------------------------------------------------------------- recording
    def record_evaluation(
        self,
        strategy: str,
        config_key: str,
        estimate: "PerformanceEstimate",
        within_band: bool,
        feasible: bool,
        cached: bool,
    ) -> EvaluationRecord:
        record = EvaluationRecord(
            index=len(self.records),
            strategy=strategy,
            config=config_key,
            latency_ms=float(estimate.latency_ms),
            lut=float(estimate.resources.lut),
            ff=float(estimate.resources.ff),
            dsp=float(estimate.resources.dsp),
            bram=float(estimate.resources.bram),
            within_band=bool(within_band),
            feasible=bool(feasible),
            cached=bool(cached),
        )
        self.records.append(record)
        return record

    def record_candidate(self, strategy: str, config_key: str, latency_ms: float) -> CandidateRecord:
        record = CandidateRecord(
            index=len(self.candidates),
            strategy=strategy,
            config=config_key,
            latency_ms=float(latency_ms),
        )
        self.candidates.append(record)
        return record

    def attach_cache_stats(self, stats: CacheStats) -> None:
        self.cache_stats = stats

    # ------------------------------------------------------------- inspection
    def __len__(self) -> int:
        return len(self.records)

    def strategies(self) -> list[str]:
        """Strategy names appearing in the journal, in first-seen order."""
        seen: dict[str, None] = {}
        for record in self.records:
            seen.setdefault(record.strategy, None)
        return list(seen)

    def summary(self) -> str:
        lines = [
            f"SearchSession '{self.name}': {len(self.records)} evaluations, "
            f"{len(self.candidates)} candidates",
        ]
        for strategy in self.strategies():
            evals = [r for r in self.records if r.strategy == strategy]
            cands = [c for c in self.candidates if c.strategy == strategy]
            cached = sum(1 for r in evals if r.cached)
            lines.append(
                f"  {strategy}: {len(evals)} evaluations "
                f"({cached} cached), {len(cands)} candidates"
            )
        if self.cache_stats is not None:
            lines.append(f"  {self.cache_stats.summary()}")
        return "\n".join(lines)

    # ---------------------------------------------------------- serialization
    def as_dict(self) -> dict:
        """The journal as plain JSON: each flat record is its ``__dict__`` plus
        the ``__type__`` tag :func:`to_jsonable` adds."""
        return {
            "name": self.name,
            "metadata": to_jsonable(self.metadata),
            "records": [dict(r.__dict__, __type__="EvaluationRecord") for r in self.records],
            "candidates": [dict(c.__dict__, __type__="CandidateRecord") for c in self.candidates],
            "cache_stats": to_jsonable(self.cache_stats),
        }

    def save(self, path) -> pathlib.Path:
        """Write the journal as deterministic (sorted-key) JSON."""
        return dump_json(self.as_dict(), path)

    @classmethod
    def load(cls, path) -> "SearchSession":
        """Reload a journal written by :meth:`save`."""
        payload = load_json(path)
        session = cls(name=payload.get("name", "search"), metadata=payload.get("metadata"))
        for raw in payload.get("records", []):
            session.records.append(EvaluationRecord(**_strip_type(raw)))
        for raw in payload.get("candidates", []):
            session.candidates.append(CandidateRecord(**_strip_type(raw)))
        raw_stats = payload.get("cache_stats")
        if raw_stats is not None:
            session.cache_stats = CacheStats(**_strip_type(raw_stats))
        return session


def _strip_type(payload: dict) -> dict:
    """Drop the ``__type__`` tag :func:`to_jsonable` adds to dataclasses."""
    return {key: value for key, value in payload.items() if key != "__type__"}
