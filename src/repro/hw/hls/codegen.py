"""Auto-HLS C code generation.

Given a :class:`~repro.hw.tile_arch.TileArchAccelerator`, the generator emits
HLS-style C code: one function per IP instance, DMA helpers for tile and
weight movement, and a top-level function that executes the DNN's layers
sequentially (folded architecture) with tile-level pipelining expressed
through ``DATAFLOW`` regions.  The generated code is a faithful structural
description of the accelerator that the synthesis simulator analyses; it is
also valid input for a real HLS tool after the usual manual optimisations the
paper mentions (buffer re-allocation, loop fusion).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.hw.hls import templates
from repro.hw.ip import IPInstance
from repro.hw.tile_arch import TileArchAccelerator
from repro.hw.workload import LayerWorkload


@dataclass
class GeneratedDesign:
    """The output of one Auto-HLS code-generation run."""

    name: str
    header: str
    source: str
    ip_functions: dict[str, str]
    layer_calls: list[str]
    extra_files: dict[str, str] = field(default_factory=dict)

    @property
    def files(self) -> dict[str, str]:
        """Mapping of file name to file content (kernel, header, support files)."""
        files = {f"{self.name}.h": self.header, f"{self.name}.cpp": self.source}
        files.update(self.extra_files)
        return files

    @property
    def total_lines(self) -> int:
        return sum(content.count("\n") + 1 for content in self.files.values())

    def write_to(self, directory) -> list[str]:
        """Write the generated files into ``directory``; returns the paths."""
        import pathlib

        directory = pathlib.Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        paths = []
        for filename, content in self.files.items():
            path = directory / filename
            path.write_text(content)
            paths.append(str(path))
        return paths


class HLSCodeGenerator:
    """Generate synthesizable-style C code for a Tile-Arch accelerator."""

    def __init__(self, accelerator: TileArchAccelerator, design_name: str | None = None) -> None:
        self.accelerator = accelerator
        self.design_name = self._sanitise(design_name or accelerator.workload.name)

    @staticmethod
    def _sanitise(name: str) -> str:
        cleaned = "".join(ch if ch.isalnum() or ch == "_" else "_" for ch in name)
        if not cleaned or cleaned[0].isdigit():
            cleaned = f"dnn_{cleaned}"
        return cleaned.lower()

    # ------------------------------------------------------------- IP bodies
    def _ip_function(self, instance: IPInstance) -> str:
        kernel = instance.template.kernel or 1
        pf = instance.parallel_factor
        if instance.kind == "conv":
            return templates.CONV_IP_TEMPLATE.format(
                name=instance.name, kernel=kernel, pf=pf, pad2=2 * (kernel // 2)
            )
        if instance.kind == "dwconv":
            return templates.DWCONV_IP_TEMPLATE.format(
                name=instance.name, kernel=kernel, pf=pf, pad2=2 * (kernel // 2)
            )
        if instance.kind == "pool":
            return templates.POOL_IP_TEMPLATE.format(name=instance.name, pf=pf)
        clip = 4 if self.accelerator.workload.feature_bits <= 8 else 0
        clip_stmt = f"if (v > {clip}) v = {clip};" if clip else "// unbounded ReLU"
        return templates.ACTIVATION_IP_TEMPLATE.format(
            name=instance.name, pf=pf, clip=clip or "none", clip_stmt=clip_stmt
        )

    def _ip_call(self, instance: IPInstance, layer: LayerWorkload) -> str:
        if instance.kind == "conv":
            return (
                f"{instance.name}(buf_a, (data_t (*)[TILE_H][TILE_W])buf_b, "
                f"(weight_t (*)[MAX_CH][{layer.kernel}][{layer.kernel}])weight_buf, "
                f"{layer.in_channels}, {layer.out_channels});"
            )
        if instance.kind == "dwconv":
            return (
                f"{instance.name}(buf_a, (data_t (*)[TILE_H][TILE_W])buf_b, "
                f"(weight_t (*)[{layer.kernel}][{layer.kernel}])weight_buf, "
                f"{layer.in_channels});"
            )
        if instance.kind == "pool":
            return (
                f"{instance.name}((data_t (*)[TILE_H][TILE_W])buf_a, "
                f"(data_t (*)[TILE_H / 2][TILE_W / 2])buf_b, {layer.in_channels});"
            )
        return f"{instance.name}((data_t (*)[TILE_H][TILE_W])buf_b, {layer.out_channels});"

    # ----------------------------------------------------------- layer calls
    def _layer_call(self, index: int, layer: LayerWorkload, weight_offset: int) -> str:
        acc = self.accelerator
        instance = acc.bundle_hw.instance_for(layer)
        num_tiles = acc.tiles_per_layer(layer)
        tiles_per_row = max(math.ceil(layer.out_width / acc.tile.tile_width), 1)
        description = (
            f"{layer.kind}{layer.kernel}x{layer.kernel} "
            f"{layer.in_channels}->{layer.out_channels} "
            f"@{layer.in_height}x{layer.in_width} stride {layer.stride}"
            + (f" (bundle {layer.bundle_index})" if layer.bundle_index >= 0 else "")
        )
        return templates.LAYER_CALL_TEMPLATE.format(
            index=index,
            description=description,
            num_tiles=num_tiles,
            tiles_per_row=tiles_per_row,
            in_ch=layer.in_channels,
            out_ch=layer.out_channels,
            in_h=layer.in_height,
            in_w=layer.in_width,
            out_h=layer.out_height,
            out_w=layer.out_width,
            num_weights=layer.params,
            weight_offset=weight_offset,
            ip_call=self._ip_call(instance, layer),
        )

    # -------------------------------------------------------------- generate
    def generate(self) -> GeneratedDesign:
        """Produce the header and source files of the accelerator."""
        acc = self.accelerator
        workload = acc.workload
        max_kernel = workload.compute_extents()[0]
        halo = max_kernel - 1
        accum_bits = min(workload.weight_bits + workload.feature_bits + 8, 48)
        guard = f"{self.design_name.upper()}_H"

        header = templates.HEADER_FILE.format(
            design_name=self.design_name,
            guard=guard,
            tile_h=acc.tile.tile_height,
            tile_w=acc.tile.tile_width,
            max_channels=workload.max_channels,
            num_layers=len(workload.layers),
        )

        parts = [templates.FILE_HEADER.format(
            design_name=self.design_name,
            device=acc.device.name,
            clock_mhz=acc.clock_mhz,
            weight_bits=workload.weight_bits,
            feature_bits=workload.feature_bits,
            accum_bits=accum_bits,
            tile_h=acc.tile.tile_height,
            tile_w=acc.tile.tile_width,
        )]

        ip_functions: dict[str, str] = {}
        for instance in acc.bundle_hw.instances:
            ip_functions[instance.name] = self._ip_function(instance)
            parts.append(ip_functions[instance.name])

        parts.append(templates.LOAD_TILE_TEMPLATE.format(halo=halo))
        parts.append(templates.STORE_TILE_TEMPLATE.format())
        parts.append(templates.LOAD_WEIGHTS_TEMPLATE.format())

        pf = acc.bundle_hw.instances[0].parallel_factor if acc.bundle_hw.instances else 8
        max_weights = max((l.params for l in workload.layers), default=1)
        parts.append(templates.TOP_FUNCTION_HEADER.format(
            design_name=self.design_name,
            halo=halo,
            weight_buf_size=max(max_weights, 1),
            pf=pf,
        ))

        layer_calls: list[str] = []
        weight_offset = 0
        for index, layer in enumerate(workload.layers):
            if layer.kind in ("activation", "norm"):
                # Activations / normalisation are fused into the preceding
                # compute IP on the accelerator; no standalone call is issued.
                continue
            call = self._layer_call(index, layer, weight_offset)
            layer_calls.append(call)
            parts.append(call)
            weight_offset += layer.params
        parts.append(templates.TOP_FUNCTION_FOOTER)

        return GeneratedDesign(
            name=self.design_name,
            header=header,
            source="\n".join(parts),
            ip_functions=ip_functions,
            layer_calls=layer_calls,
        )
