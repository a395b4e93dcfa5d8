"""Bundle-Arch: the hardware-aware DNN building-block template.

A *Bundle* is a short sequence of DNN layers used as the basic building
block of the searched networks (Sec. 4.1-4.2).  Each computational layer of
a bundle maps to one IP template of the accelerator; activation (and
optionally normalisation) follows each computational layer.  DNN models are
built by replicating, shaping and configuring a bundle bottom-up, with
down-sampling spots reserved between replications and channel-expansion
spots reserved between IPs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

#: Computational layer kinds a bundle may contain.
_COMPUTE_KINDS = ("conv", "dwconv")
#: Non-computational kinds.
_AUX_KINDS = ("pool", "norm", "activation")


@dataclass(frozen=True)
class LayerSpec:
    """One layer inside a bundle.

    Attributes
    ----------
    kind:
        ``conv``, ``dwconv``, ``pool``, ``norm`` or ``activation``.
    kernel:
        Kernel size (ignored for ``norm`` / ``activation``).
    expand:
        Whether the channel-expansion spot *after* this layer is active:
        when the bundle is instantiated with a channel-expansion factor, the
        output channel count of this layer is the expanded one.  Only
        meaningful for standard convolutions (depth-wise convolutions cannot
        change the channel count).
    """

    kind: str
    kernel: int = 1
    expand: bool = False

    def __post_init__(self) -> None:
        if self.kind not in _COMPUTE_KINDS + _AUX_KINDS:
            raise ValueError(f"Unknown layer kind '{self.kind}'")
        if self.kernel <= 0:
            raise ValueError("kernel must be positive")
        if self.expand and self.kind != "conv":
            raise ValueError("Only standard convolutions can expand channels")

    @property
    def is_compute(self) -> bool:
        return self.kind in _COMPUTE_KINDS

    @property
    def ip_key(self) -> str:
        """Key of the IP template this layer maps to."""
        if self.kind in _COMPUTE_KINDS:
            return f"{self.kind}{self.kernel}x{self.kernel}"
        return self.kind

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.is_compute:
            return self.ip_key
        return self.kind


@dataclass(frozen=True)
class Bundle:
    """A hardware-aware DNN building block.

    Attributes
    ----------
    bundle_id:
        Numeric identifier (matches the bundle IDs used in the paper's
        figures when the default catalogue is used).
    layers:
        Ordered layer specs.  At most ``max_compute_ips`` computational
        layers are allowed (two, for IoT-scale devices).
    name:
        Optional human-readable name.
    """

    bundle_id: int
    layers: tuple[LayerSpec, ...]
    name: str = ""

    #: Maximum computational IPs per bundle (Sec. 4.2: limited to two
    #: because the target IoT devices have scarce resources).
    max_compute_ips: int = 2

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError("A bundle needs at least one layer")
        n_compute = len(self.compute_layers)
        if n_compute == 0:
            raise ValueError("A bundle needs at least one computational layer")
        if n_compute > self.max_compute_ips:
            raise ValueError(
                f"Bundle {self.bundle_id} has {n_compute} computational IPs; "
                f"at most {self.max_compute_ips} are allowed"
            )

    def __hash__(self) -> int:
        # The generated hash would rehash every LayerSpec on each call; a
        # bundle keys every config intern-table lookup, so hash it once.
        try:
            return self.__dict__["_hash"]
        except KeyError:
            value = self.__dict__["_hash"] = hash(
                (self.bundle_id, self.layers, self.name, self.max_compute_ips))
            return value

    def __getstate__(self) -> dict:
        # A hash holds only under the PYTHONHASHSEED that computed it.
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    # ------------------------------------------------------------ properties
    @property
    def compute_layers(self) -> tuple[LayerSpec, ...]:
        """The computational (conv / dwconv) layers of the bundle."""
        return tuple(l for l in self.layers if l.is_compute)

    @cached_property
    def signature(self) -> str:
        """Composition string, e.g. ``"dwconv3x3+conv1x1"``.

        The signature identifies the bundle's computational structure; it is
        the key used by the surrogate accuracy model and by reports.
        """
        return "+".join(l.ip_key for l in self.compute_layers)

    @property
    def display_name(self) -> str:
        return self.name or f"Bundle {self.bundle_id} <{self.signature}>"

    # --------------------------------------------------------------- factory
    @classmethod
    def from_signature(
        cls, bundle_id: int, signature: str, activation: bool = True, name: str = ""
    ) -> "Bundle":
        """Build a bundle from a composition string like ``"dwconv3x3+conv1x1"``.

        An activation spec is inserted after each computational layer when
        ``activation`` is true.  The last standard convolution is marked as
        the channel-expansion spot.
        """
        parts = [p.strip() for p in signature.split("+") if p.strip()]
        if not parts:
            raise ValueError("Empty bundle signature")
        specs: list[LayerSpec] = []
        conv_positions = [i for i, p in enumerate(parts) if not p.startswith("dw")]
        expand_index = conv_positions[-1] if conv_positions else -1
        for i, part in enumerate(parts):
            kind = "dwconv" if part.startswith("dw") else "conv"
            kernel = None
            for k in (7, 5, 3, 1):
                if f"{k}x{k}" in part:
                    kernel = k
                    break
            if kernel is None:
                raise ValueError(f"Cannot parse kernel size from '{part}'")
            specs.append(LayerSpec(kind=kind, kernel=kernel, expand=(i == expand_index)))
            if activation:
                specs.append(LayerSpec(kind="activation"))
        return cls(bundle_id=bundle_id, layers=tuple(specs), name=name)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.display_name
