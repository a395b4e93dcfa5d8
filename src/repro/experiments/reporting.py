"""Shared reporting helpers for the experiment drivers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.utils.tables import render_kv, render_table


@dataclass
class ExperimentReport:
    """A titled collection of tables / text blocks produced by one experiment."""

    title: str
    sections: list[str] = field(default_factory=list)

    def add_table(self, headers: Sequence[str], rows: Sequence[Sequence[object]], title: str = "") -> None:
        self.sections.append(render_table(headers, rows, title=title or None))

    def add_kv(self, title: str, mapping: dict[str, object]) -> None:
        self.sections.append(render_kv(title, mapping))

    def render(self) -> str:
        """Full report as plain text."""
        bar = "=" * max(len(self.title), 20)
        return "\n".join([bar, self.title, bar, *self.sections])

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.render()


#: Calibration constant: the tile-pipeline simulator is optimistic relative
#: to the measured board (it does not model DDR contention with the ARM
#: cores, driver overheads, or frame pre-processing).  Board-scale latency
#: targets are divided by this factor when translated into model-scale
#: targets, and EXPERIMENTS.md records both scales.
MODEL_TO_BOARD_LATENCY_GAP = 2.4
