"""FPGA resource vectors.

Resources tracked are the four the paper reports in Table 2: LUTs, flip-flops
(FF), DSP slices, and BRAM (in units of 18Kb blocks).
"""

from __future__ import annotations

from dataclasses import dataclass

RESOURCE_KINDS = ("lut", "ff", "dsp", "bram")


@dataclass(frozen=True)
class ResourceVector:
    """Immutable vector of FPGA resource usage.

    Attributes
    ----------
    lut:
        Look-up tables.
    ff:
        Flip-flops.
    dsp:
        DSP48 slices.
    bram:
        BRAM, counted in 18Kb blocks.
    """

    lut: float = 0.0
    ff: float = 0.0
    dsp: float = 0.0
    bram: float = 0.0

    # -------------------------------------------------------------- algebra
    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            lut=self.lut + other.lut,
            ff=self.ff + other.ff,
            dsp=self.dsp + other.dsp,
            bram=self.bram + other.bram,
        )

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            lut=self.lut - other.lut,
            ff=self.ff - other.ff,
            dsp=self.dsp - other.dsp,
            bram=self.bram - other.bram,
        )

    def scale(self, factor: float) -> "ResourceVector":
        """Scale every component by ``factor``."""
        return ResourceVector(
            lut=self.lut * factor,
            ff=self.ff * factor,
            dsp=self.dsp * factor,
            bram=self.bram * factor,
        )

    def __mul__(self, factor: float) -> "ResourceVector":
        return self.scale(factor)

    __rmul__ = __mul__

    # ------------------------------------------------------------ comparison
    def fits_within(self, budget: "ResourceVector") -> bool:
        """True when every component is within ``budget``."""
        return (
            self.lut <= budget.lut
            and self.ff <= budget.ff
            and self.dsp <= budget.dsp
            and self.bram <= budget.bram
        )

    # --------------------------------------------------------------- exports
    def as_dict(self) -> dict[str, float]:
        """Dictionary form (keys ``lut``, ``ff``, ``dsp``, ``bram``)."""
        return {"lut": self.lut, "ff": self.ff, "dsp": self.dsp, "bram": self.bram}

    @staticmethod
    def zero() -> "ResourceVector":
        return ResourceVector()


@dataclass(frozen=True)
class ResourceUtilization:
    """Resource usage expressed as a fraction of a device's capacity."""

    lut: float
    ff: float
    dsp: float
    bram: float

    @property
    def max_fraction(self) -> float:
        """The binding (largest) utilization fraction."""
        return max(self.lut, self.ff, self.dsp, self.bram)

    def as_dict(self) -> dict[str, float]:
        return {"lut": self.lut, "ff": self.ff, "dsp": self.dsp, "bram": self.bram}

    def as_percent_dict(self) -> dict[str, float]:
        """Utilization in percent, as reported in Table 2."""
        return {k: 100.0 * v for k, v in self.as_dict().items()}
