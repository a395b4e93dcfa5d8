"""Candidate DNN configuration and its builders.

A :class:`DNNConfig` describes one candidate DNN in the search space: the
bundle it is built from, the number of bundle replications ``N``, the
channel-expansion vector ``Pi``, the down-sampling vector ``X``, the
activation (which fixes the feature-map quantization), the weight bit width
and the accelerator parallelism factor ``PF``.

The config can be turned into:

* a :class:`repro.hw.workload.NetworkWorkload` for latency / resource
  estimation (:meth:`DNNConfig.to_workload`),
* a trainable :class:`repro.nn.model.Sequential` (:meth:`DNNConfig.to_model`),
* :class:`repro.detection.accuracy_model.CandidateFeatures` for the surrogate
  accuracy model (:meth:`DNNConfig.features`).

:meth:`DNNConfig.interned` returns the one object a process holds for a
config's field values (at most :data:`INTERN_LIMIT` of them).  Every search
move (:meth:`DNNConfig.with_updates`, over the same table) and the search's
initial configs go through it, so a revisited config is neither built,
validated nor keyed again.  ``DNNConfig(...)`` and :func:`dataclasses.replace` still build a
fresh object.
"""

from __future__ import annotations

import operator
import os
import threading
from dataclasses import dataclass, fields, replace
from typing import Optional, Sequence

from repro.core.bundle import Bundle, LayerSpec
from repro.detection.accuracy_model import CandidateFeatures
from repro.detection.task import DetectionTask
from repro.hw.workload import LayerWorkload, NetworkWorkload
from repro.nn import (
    BatchNorm2D,
    BBoxHead,
    Conv2D,
    DepthwiseConv2D,
    MaxPool2D,
    Sequential,
    make_activation,
)
from repro.nn.quantization import scheme_for_activation
from repro.utils.rng import RNGLike

#: Channel counts are rounded to multiples of this value so that the
#: accelerator's parallel lanes divide them evenly.
CHANNEL_ROUND = 8

#: Entry cap of the table behind :meth:`DNNConfig.interned`.  A full table is
#: cleared before its next insert, as the evaluator's memo tables are
#: (:data:`repro.hw.evaluator.MEMO_LIMIT`); the paper grid's ~3,800 distinct
#: configs fit.
INTERN_LIMIT = 8192


def _round_channels(value: float, minimum: int = CHANNEL_ROUND) -> int:
    """Round a channel count to the nearest hardware-friendly multiple."""
    rounded = int(round(value / CHANNEL_ROUND)) * CHANNEL_ROUND
    return max(rounded, minimum)


@dataclass(frozen=True)
class DNNConfig:
    """One candidate DNN in the co-design search space.

    Attributes
    ----------
    bundle:
        The building block.
    task:
        Target detection task (fixes the input resolution).
    num_repetitions:
        ``N`` — how many times the bundle is replicated.
    channel_expansion:
        ``Pi`` — per-repetition channel-expansion factor (length must equal
        ``num_repetitions``).
    downsample:
        ``X`` — per-repetition 0/1 flags; a 1 inserts a down-sampling layer
        before that repetition (the reserved down-sampling spots between
        bundles).
    stem_channels:
        Output channels of the fixed stem convolution.
    activation:
        ``relu`` / ``relu4`` / ``relu8``; also fixes the feature-map bits.
    weight_bits:
        Weight quantization bit width.
    parallel_factor:
        Accelerator parallelism factor ``PF`` shared by all IP instances.
    max_channels:
        Hard cap on channel width (matches the "maximum N channels"
        annotations of Fig. 6).
    """

    bundle: Bundle
    task: DetectionTask
    num_repetitions: int = 3
    channel_expansion: tuple[float, ...] = ()
    downsample: tuple[int, ...] = ()
    stem_channels: int = 48
    activation: str = "relu4"
    weight_bits: int = 8
    parallel_factor: int = 16
    max_channels: int = 512
    name: str = ""

    def __post_init__(self) -> None:
        # Integers, flags and factors are stored as int / int / float, so
        # configs that compare equal also describe (and key) the same.
        for name in _INT_FIELDS:
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        if self.num_repetitions <= 0:
            raise ValueError("num_repetitions must be positive")
        if self.stem_channels <= 0 or self.max_channels <= 0:
            raise ValueError("channel counts must be positive")
        if self.parallel_factor <= 0:
            raise ValueError("parallel_factor must be positive")
        expansion = self.channel_expansion or tuple([1.5] * self.num_repetitions)
        downsample = self.downsample or tuple(
            1 if i < min(self.num_repetitions, 4) else 0 for i in range(self.num_repetitions)
        )
        if len(expansion) != self.num_repetitions:
            raise ValueError("channel_expansion length must equal num_repetitions")
        if len(downsample) != self.num_repetitions:
            raise ValueError("downsample length must equal num_repetitions")
        if not all(f > 0 for f in expansion):  # NaN fails too
            raise ValueError("channel expansion factors must be positive")
        if any(flag not in (0, 1) for flag in downsample):
            raise ValueError("downsample entries must be 0 or 1")
        object.__setattr__(self, "channel_expansion", tuple(map(float, expansion)))
        object.__setattr__(self, "downsample", tuple(map(int, downsample)))

    # -------------------------------------------------------------- metadata
    @property
    def feature_bits(self) -> int:
        """Feature-map bit width implied by the activation choice."""
        return scheme_for_activation(self.activation, self.weight_bits).feature_bits

    @property
    def display_name(self) -> str:
        return self.name or (
            f"B{self.bundle.bundle_id}-N{self.num_repetitions}-"
            f"{self.activation}-pf{self.parallel_factor}"
        )

    @classmethod
    def interned(cls, **values) -> "DNNConfig":
        """``DNNConfig(**values)``, as the one object this process holds for them.

        The config is looked up by field values (bundle, task and every other
        field) in one process-wide table before anything is built, so an
        equal config seen before comes back as the same object, with the
        cache key it already memoised.  A miss builds through the
        constructor, which validates, and stores the result.  The table holds
        at most :data:`INTERN_LIMIT` configs.
        """
        return _lookup(tuple({**_DEFAULTS, **values}.values())) or _intern(cls(**values))

    def with_updates(self, **kwargs) -> "DNNConfig":
        """This config with selected fields replaced, :meth:`interned`.

        Every search move and the parallel-factor maximisation build here.
        """
        values = list(_field_values(self))
        try:
            for name, value in kwargs.items():
                values[_FIELD_INDEX[name]] = value
        except KeyError:  # not a field: the constructor raises its TypeError
            return replace(self, **kwargs)
        return _lookup(tuple(values)) or _intern(type(self)(*values))

    # ------------------------------------------------------------- structure
    def channel_schedule(self) -> list[int]:
        """Output channel count of each bundle repetition (after expansion)."""
        channels: list[int] = []
        current = float(self.stem_channels)
        for factor in self.channel_expansion:
            current = min(current * factor, float(self.max_channels))
            channels.append(_round_channels(current))
            current = float(channels[-1])
        return channels

    def spatial_schedule(self) -> list[tuple[int, int]]:
        """Input spatial size (H, W) of each bundle repetition."""
        _, h, w = self.task.input_shape
        # The stem convolution always halves the resolution once.
        h, w = max(h // 2, 1), max(w // 2, 1)
        sizes: list[tuple[int, int]] = []
        for flag in self.downsample:
            if flag:
                h, w = max(h // 2, 1), max(w // 2, 1)
            sizes.append((h, w))
        return sizes

    # -------------------------------------------------------------- workload
    def stem_layer(self) -> LayerWorkload:
        """The stem: a fixed 3x3 stride-2 convolution lifting the input to
        ``stem_channels`` (the "fixed head" of construction method #1)."""
        c_in, h_in, w_in = self.task.input_shape
        return LayerWorkload(
            kind="conv", kernel=3, in_channels=c_in, out_channels=self.stem_channels,
            in_height=h_in, in_width=w_in, stride=2, bundle_index=-1,
        )

    @staticmethod
    def head_layer(in_channels: int, size: tuple[int, int]) -> LayerWorkload:
        """Detection head: a 1x1 convolution to 4 outputs followed by global
        pooling (modelled as the "head" workload kind)."""
        return LayerWorkload(
            kind="head", kernel=1, in_channels=in_channels, out_channels=4,
            in_height=size[0], in_width=size[1], bundle_index=-1,
        )

    @staticmethod
    def repetition_layers(
        specs: Sequence[LayerSpec],
        index: int,
        in_channels: int,
        out_channels: int,
        size: tuple[int, int],
        downsample: int,
    ) -> tuple[list[LayerWorkload], int]:
        """Workload layers of one bundle repetition, and the channels it emits.

        ``size`` is the repetition's entry of :meth:`spatial_schedule`,
        ``out_channels`` its entry of :meth:`channel_schedule`.  This is the
        only copy of the per-repetition layer rules: :meth:`to_workload` and
        the FPGA evaluator (:mod:`repro.hw.evaluator`) both build from it.
        """
        h, w = size
        stride_pending = bool(downsample)
        current_in = in_channels
        layers: list[LayerWorkload] = []
        for spec in specs:
            if spec.kind in ("activation", "norm"):
                layers.append(LayerWorkload(
                    kind=spec.kind, kernel=1, in_channels=current_in,
                    out_channels=current_in, in_height=h, in_width=w,
                    bundle_index=index,
                ))
                continue
            if spec.kind == "pool":
                layers.append(LayerWorkload(
                    kind="pool", kernel=2, in_channels=current_in,
                    out_channels=current_in, in_height=h, in_width=w,
                    stride=2, bundle_index=index,
                ))
                h, w = max(h // 2, 1), max(w // 2, 1)
                continue
            # Computational layer.  The down-sampling spot reserved before
            # this repetition is realised as stride 2 on its first
            # computational layer.
            stride = 2 if stride_pending else 1
            stride_pending = False
            if spec.kind == "dwconv":
                layer_out = current_in
            else:
                layer_out = out_channels if spec.expand else current_in
            # A stride-2 layer keeps the pre-halving spatial size as its
            # input; the workload spatial bookkeeping already reflects the
            # halved size, so undo it for this layer's input dims.
            in_h, in_w = (h * 2, w * 2) if stride == 2 else (h, w)
            layers.append(LayerWorkload(
                kind=spec.kind, kernel=spec.kernel, in_channels=current_in,
                out_channels=layer_out, in_height=in_h, in_width=in_w,
                stride=stride, bundle_index=index,
            ))
            current_in = layer_out
        return layers, current_in

    def to_workload(self) -> NetworkWorkload:
        """Build the hardware workload description of this candidate."""
        layers = [self.stem_layer()]
        sizes = self.spatial_schedule()
        in_channels = self.stem_channels
        for rep, (size, out_channels) in enumerate(zip(sizes, self.channel_schedule())):
            rep_layers, in_channels = self.repetition_layers(
                self.bundle.layers, rep, in_channels, out_channels, size, self.downsample[rep]
            )
            layers.extend(rep_layers)
        layers.append(self.head_layer(in_channels, sizes[-1]))
        return NetworkWorkload(
            layers=layers,
            input_shape=self.task.input_shape,
            weight_bits=self.weight_bits,
            feature_bits=self.feature_bits,
            name=self.display_name,
            bundle_signature=self.bundle.signature,
        )

    # ----------------------------------------------------------------- model
    def to_model(self, rng: RNGLike = None) -> Sequential:
        """Build a trainable numpy model matching this configuration."""
        c_in, _, _ = self.task.input_shape
        model = Sequential(name=self.display_name)
        model.add(Conv2D(c_in, self.stem_channels, 3, stride=2, rng=rng, name="stem"))
        model.add(BatchNorm2D(self.stem_channels, name="stem_bn"))
        model.add(make_activation(self.activation))

        channels = self.channel_schedule()
        in_channels = self.stem_channels
        for rep in range(self.num_repetitions):
            out_channels = channels[rep]
            stride_pending = bool(self.downsample[rep])
            current_in = in_channels
            for spec in self.bundle.layers:
                if spec.kind == "activation":
                    model.add(make_activation(self.activation))
                    continue
                if spec.kind == "norm":
                    model.add(BatchNorm2D(current_in, name=f"b{rep}_bn"))
                    continue
                if spec.kind == "pool":
                    model.add(MaxPool2D(2, name=f"b{rep}_pool"))
                    continue
                stride = 2 if stride_pending else 1
                stride_pending = False
                if spec.kind == "dwconv":
                    model.add(DepthwiseConv2D(current_in, spec.kernel, stride=stride, rng=rng,
                                              name=f"b{rep}_dw{spec.kernel}"))
                else:
                    layer_out = out_channels if spec.expand else current_in
                    model.add(Conv2D(current_in, layer_out, spec.kernel, stride=stride, rng=rng,
                                     name=f"b{rep}_conv{spec.kernel}"))
                    current_in = layer_out
            in_channels = current_in

        model.add(BBoxHead(in_channels, rng=rng))
        return model

    # -------------------------------------------------------------- features
    def features(self, epochs: int = 200) -> CandidateFeatures:
        """Structural features for the surrogate accuracy model."""
        workload = self.to_workload()
        return CandidateFeatures(
            macs=float(workload.total_macs),
            params=workload.total_params,
            depth=workload.compute_depth,
            max_channels=workload.max_channels,
            num_downsamples=workload.num_downsamples,
            feature_bits=self.feature_bits,
            weight_bits=self.weight_bits,
            bundle_signature=self.bundle.signature,
            input_pixels=self.task.input_pixels,
            epochs=epochs,
        )

    def describe(self) -> str:
        """Readable summary similar to the annotations of Fig. 6."""
        channels = self.channel_schedule()
        return (
            f"{self.display_name}: Bundle {self.bundle.bundle_id} "
            f"<{self.bundle.signature}>, {self.num_repetitions} bundle replications, "
            f"maximum {max(channels)} channels, "
            f"{self.feature_bits}-bit feature map ({self.activation}), "
            f"{self.weight_bits}-bit weights, PF={self.parallel_factor}"
        )


_INT_FIELDS = tuple(f.name for f in fields(DNNConfig) if f.type == "int")
_FIELD_NAMES = tuple(f.name for f in fields(DNNConfig))
_FIELD_INDEX = {name: index for index, name in enumerate(_FIELD_NAMES)}
#: Every field's default, ``MISSING`` for bundle and task, in field order.
_DEFAULTS = {f.name: f.default for f in fields(DNNConfig)}
_field_values = operator.attrgetter(*_FIELD_NAMES)
#: Field values (bundle, task and every other field, in field order) -> the
#: one config this process holds for them.  Keyed on values, never on object
#: identity.  Lookups take no lock; inserts take ``_intern_lock``, so the
#: table never exceeds its bound and racing threads store one object.
_interned: dict[tuple, DNNConfig] = {}
_intern_lock = threading.Lock()


def _forget_lock_in_child() -> None:
    # The fork copied the lock as another thread left it, held maybe.
    global _intern_lock
    _intern_lock = threading.Lock()


os.register_at_fork(after_in_child=_forget_lock_in_child)


def _lookup(key: tuple) -> Optional[DNNConfig]:
    """The interned config with field values ``key``, if there is one."""
    try:
        return _interned.get(key)
    except TypeError:  # an unhashable value, e.g. a list the constructor converts
        return None


def _intern(config: DNNConfig) -> DNNConfig:
    """The interned config equal to ``config``; ``config`` itself when new."""
    key = _field_values(config)
    with _intern_lock:
        interned = _interned.get(key)
        if interned is None:
            if len(_interned) >= INTERN_LIMIT:
                _interned.clear()
            interned = _interned[key] = config
    return interned
