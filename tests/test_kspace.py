import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imt.errors import InvalidInputError
from imt.imgstack import ComplexImageStack
from imt.kspace import (
    KspaceFilterSpec,
    apply_kspace_filters,
    fft2,
    filter_mask,
    ifft2,
    kspace_resize,
)


def delta_image(h, w):
    img = np.zeros((h, w), dtype=np.complex64)
    img[h // 2, w // 2] = 1.0
    return img


class TestTransforms:
    def test_dc_location(self):
        # a constant image concentrates at the centered DC bin floor(n/2)
        img = np.ones((6, 8), dtype=np.complex64)
        k = fft2(img)
        peak = np.unravel_index(np.argmax(np.abs(k)), k.shape)
        assert peak == (3, 4)

    def test_unitary(self, rng):
        img = (rng.normal(size=(7, 9)) + 1j * rng.normal(size=(7, 9))).astype(
            np.complex64
        )
        k = fft2(img)
        assert np.sum(np.abs(k) ** 2) == pytest.approx(
            np.sum(np.abs(img) ** 2), rel=1e-5
        )

    def test_round_trip(self, rng):
        img = (rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))).astype(
            np.complex64
        )
        assert np.allclose(ifft2(fft2(img)), img, atol=1e-5)

    def test_dtype_preserved(self):
        img = np.ones((4, 4), dtype=np.complex64)
        assert fft2(img).dtype == np.complex64
        assert ifft2(img).dtype == np.complex64

    def test_stack_is_per_slice(self, rng):
        # the transforms act on the last two axes only, slice by slice
        stack = (rng.normal(size=(3, 7, 9)) + 1j * rng.normal(size=(3, 7, 9))).astype(
            np.complex64
        )
        for fn in (fft2, ifft2):
            assert np.array_equal(fn(stack), np.stack([fn(s) for s in stack]))
            with pytest.raises(InvalidInputError):
                fn(stack[0, 0])

    def test_delta_flat_spectrum(self):
        # delta at the center pixel -> constant spectrum (phase-free)
        k = fft2(delta_image(8, 8))
        assert np.allclose(k, k[0, 0], atol=1e-6)
        assert k[0, 0] == pytest.approx(1 / 8, abs=1e-6)

    @given(seed=st.integers(0, 2**16), h=st.integers(3, 12), w=st.integers(3, 12))
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, seed, h, w):
        rng = np.random.default_rng(seed)
        a = (rng.normal(size=(h, w)) + 1j * rng.normal(size=(h, w))).astype(np.complex64)
        b = (rng.normal(size=(h, w)) + 1j * rng.normal(size=(h, w))).astype(np.complex64)
        lhs = fft2(a + b)
        rhs = fft2(a) + fft2(b)
        assert np.allclose(lhs, rhs, atol=1e-4)


class TestFilterSpec:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            KspaceFilterSpec(resolution_reduction_keep=0.0)
        with pytest.raises(InvalidInputError):
            KspaceFilterSpec(resolution_reduction_keep=1.2)
        with pytest.raises(InvalidInputError):
            KspaceFilterSpec(partial_fourier_fraction=0.5)
        with pytest.raises(InvalidInputError):
            KspaceFilterSpec(gaussian_width_phase=-1.0)
        with pytest.raises(InvalidInputError):
            KspaceFilterSpec(axis_phase=2)
        KspaceFilterSpec()

    def test_all_pass_detection(self):
        assert KspaceFilterSpec().is_all_pass()
        assert not KspaceFilterSpec(partial_fourier_fraction=0.75).is_all_pass()

    def test_all_pass_mask_is_ones(self):
        assert (filter_mask(KspaceFilterSpec(), 6, 6) == 1.0).all()

    def test_resolution_reduction_counts(self):
        mask = filter_mask(KspaceFilterSpec(resolution_reduction_keep=0.5), 8, 8)
        row = mask[:, 4]
        assert row.sum() == 4
        # centered on DC bin 4: indices 2..5
        assert (np.nonzero(row)[0] == [2, 3, 4, 5]).all()

    def test_partial_fourier_zeroes_high_end(self):
        mask = filter_mask(
            KspaceFilterSpec(partial_fourier_fraction=0.75, axis_phase=0), 8, 8
        )
        assert (mask[6:, :] == 0).all()
        assert (mask[:6, :] == 1).all()

    def test_partial_fourier_respects_axis(self):
        mask = filter_mask(
            KspaceFilterSpec(partial_fourier_fraction=0.75, axis_phase=1), 8, 8
        )
        assert (mask[:, 6:] == 0).all()

    def test_gaussian_apodization_profile(self):
        w = 0.1
        mask = filter_mask(KspaceFilterSpec(gaussian_width_read=w, axis_phase=0), 1, 9)
        f = (np.arange(9) - 4) / 9
        assert np.allclose(mask[0], np.exp(-(f**2) / (2 * w * w)))

    def test_filters_compose_separably(self):
        spec = KspaceFilterSpec(
            resolution_reduction_keep=0.8,
            partial_fourier_fraction=0.8,
            gaussian_width_phase=0.2,
            gaussian_width_read=0.3,
        )
        mask = filter_mask(spec, 12, 10)
        assert mask.shape == (12, 10)
        # separable: rank 1
        assert np.linalg.matrix_rank(mask) == 1

    def test_apply_matches_mask(self, rng):
        img = (rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))).astype(
            np.complex64
        )
        spec = KspaceFilterSpec(resolution_reduction_keep=0.6)
        out = apply_kspace_filters(img, spec)
        manual = ifft2(fft2(img) * filter_mask(spec, 8, 8).astype(np.float32))
        assert np.allclose(out, manual, atol=1e-6)
        # a stack is filtered slice by slice; fewer than 2 dims is rejected
        stack = np.stack([img, 2 * img, img.conj()])
        assert np.array_equal(
            apply_kspace_filters(stack, spec),
            np.stack([apply_kspace_filters(s, spec) for s in stack]),
        )
        with pytest.raises(InvalidInputError):
            apply_kspace_filters(img[0], spec)


class TestResize:
    def stack(self, h=16, w=16, rng=None):
        rng = rng or np.random.default_rng(5)
        data = (rng.normal(size=(2, h, w)) + 1j * rng.normal(size=(2, h, w))).astype(
            np.complex64
        )
        return ComplexImageStack(data)

    def test_identity_ratio(self):
        s = self.stack()
        out = kspace_resize(s, 1.0)
        assert np.array_equal(out.data, s.data)

    def test_output_dims_round_half_up(self):
        s = self.stack(10, 10)
        assert kspace_resize(s, 0.75).shape == (2, 8, 8)  # 7.5 -> 8
        assert kspace_resize(s, 1.25).shape == (2, 13, 13)  # 12.5 -> 13

    def test_ratio_bounds(self):
        s = self.stack()
        with pytest.raises(InvalidInputError):
            kspace_resize(s, 0.4)
        with pytest.raises(InvalidInputError):
            kspace_resize(s, 1.6)

    def test_too_small_output_rejected(self):
        s = self.stack(6, 6)
        with pytest.raises(InvalidInputError):
            kspace_resize(s, 0.5)  # 3 < 4

    def test_downsample_preserves_dc(self):
        # constant image stays constant under either direction
        data = np.full((1, 12, 12), 2 + 1j, dtype=np.complex64)
        s = ComplexImageStack(data)
        down = kspace_resize(s, 0.5)
        assert np.allclose(down.data, down.data[0, 0, 0], atol=1e-5)
        up = kspace_resize(s, 1.5)
        assert np.allclose(up.data, up.data[0, 0, 0], atol=1e-5)

    def test_up_then_down_recovers_bandlimited(self):
        s = self.stack(12, 12)
        up = kspace_resize(s, 1.5)
        back = kspace_resize(up, 12 / up.height)
        assert np.allclose(back.data, s.data, atol=1e-4)
