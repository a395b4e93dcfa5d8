"""Tests for Bundle-Arch: bundles, layer specs and bundle generation."""

from __future__ import annotations

import pytest

from repro.core.bundle import Bundle, LayerSpec
from repro.core.bundle_generation import (
    DEFAULT_BUNDLE_SIGNATURES,
    default_bundle_catalog,
    generate_bundles,
    get_bundle,
)


class TestLayerSpec:
    def test_ip_key(self):
        assert LayerSpec("conv", 3).ip_key == "conv3x3"
        assert LayerSpec("dwconv", 7).ip_key == "dwconv7x7"
        assert LayerSpec("activation").ip_key == "activation"

    def test_expand_only_on_conv(self):
        with pytest.raises(ValueError):
            LayerSpec("dwconv", 3, expand=True)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            LayerSpec("attention", 1)

    def test_is_compute(self):
        assert LayerSpec("conv", 1).is_compute
        assert not LayerSpec("pool", 2).is_compute


class TestBundle:
    def test_from_signature_structure(self):
        bundle = Bundle.from_signature(13, "dwconv3x3+conv1x1")
        assert bundle.signature == "dwconv3x3+conv1x1"
        kinds = [l.kind for l in bundle.layers]
        assert kinds == ["dwconv", "activation", "conv", "activation"]

    def test_expansion_spot_is_last_conv(self):
        bundle = Bundle.from_signature(1, "conv3x3+conv1x1")
        expanding = [l for l in bundle.compute_layers if l.expand]
        assert len(expanding) == 1
        assert expanding[0].kernel == 1

    def test_dw_only_bundle_cannot_expand(self):
        bundle = Bundle.from_signature(10, "dwconv3x3")
        assert not any(layer.expand for layer in bundle.layers)

    def test_max_two_compute_ips(self):
        with pytest.raises(ValueError):
            Bundle.from_signature(99, "conv3x3+conv3x3+conv3x3")

    def test_needs_compute_layer(self):
        with pytest.raises(ValueError):
            Bundle(bundle_id=1, layers=(LayerSpec("activation"),))

    def test_display_name(self):
        bundle = Bundle.from_signature(13, "dwconv3x3+conv1x1")
        assert "13" in bundle.display_name and "dwconv3x3" in bundle.display_name

    def test_invalid_signature(self):
        with pytest.raises(ValueError):
            Bundle.from_signature(1, "")
        with pytest.raises(ValueError):
            Bundle.from_signature(1, "convAxA")


class TestDefaultCatalog:
    def test_exactly_18_bundles(self, catalog):
        assert len(catalog) == 18
        assert len(DEFAULT_BUNDLE_SIGNATURES) == 18

    def test_ids_sequential(self, catalog):
        assert [b.bundle_id for b in catalog] == list(range(1, 19))

    def test_bundle13_matches_paper(self):
        """Fig. 6: the final designs use Bundle 13 = dw-conv3x3 + conv1x1."""
        assert get_bundle(13).signature == "dwconv3x3+conv1x1"

    def test_bundle1_and_3_are_conv_heavy(self):
        assert get_bundle(1).signature.startswith("conv3x3")
        assert get_bundle(3).signature.startswith("conv5x5")

    def test_signatures_unique(self, catalog):
        signatures = [b.signature for b in catalog]
        assert len(signatures) == len(set(signatures))

    def test_all_respect_compute_ip_limit(self, catalog):
        assert all(len(b.compute_layers) <= 2 for b in catalog)

    def test_get_bundle_invalid_id(self):
        with pytest.raises(KeyError):
            get_bundle(99)


class TestGenerateBundles:
    def test_generates_unique_signatures(self):
        bundles = generate_bundles()
        signatures = [b.signature for b in bundles]
        assert len(signatures) == len(set(signatures))

    def test_single_ip_toggle(self):
        with_single = generate_bundles(include_single_ip=True)
        without_single = generate_bundles(include_single_ip=False)
        assert len(with_single) > len(without_single)
        assert all("+" in b.signature for b in without_single)

    def test_channel_mixing_filter(self):
        mixed_only = generate_bundles(require_channel_mixing=True)
        assert all(
            any(not part.startswith("dw") for part in b.signature.split("+"))
            for b in mixed_only
        )

    def test_small_pool(self):
        bundles = generate_bundles(compute_ips=("conv3x3", "dwconv3x3"), max_compute_ips=2)
        # 2 singles + 4 ordered pairs (with repetition) = 6.
        assert len(bundles) == 6

    def test_covers_default_catalog_signatures(self):
        generated = {b.signature for b in generate_bundles()}
        assert set(DEFAULT_BUNDLE_SIGNATURES).issubset(generated)

    def test_invalid_max_ips(self):
        with pytest.raises(ValueError):
            generate_bundles(max_compute_ips=0)
