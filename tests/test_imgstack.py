import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imt.errors import (
    DegenerateInputError,
    FormatError,
    InvalidInputError,
    InvalidStateError,
    TruncationError,
)
from imt.imgstack import (
    ComplexImageStack,
    GFactorMap,
    PowerNormState,
    average_repetitions,
    coil_combine_rss,
    export_u16,
    load_gmap,
    load_stack,
    mean_signal_power,
    power_denormalize,
    power_normalize,
    save_gmap,
    save_stack,
    write_pgm_slices,
)


def make(data):
    return ComplexImageStack(np.asarray(data, dtype=np.complex64))


class TestComplexImageStack:
    def test_shape_properties(self, small_stack):
        assert small_stack.shape == (3, 16, 16)
        assert small_stack.slices == 3
        assert small_stack.height == 16
        assert small_stack.width == 16
        assert small_stack.voxels == 3 * 16 * 16

    def test_rejects_wrong_rank(self):
        with pytest.raises(InvalidInputError):
            ComplexImageStack(np.zeros((4, 4), dtype=np.complex64))

    def test_rejects_nonfinite(self):
        bad = np.zeros((1, 2, 2), dtype=np.complex64)
        bad[0, 0, 0] = np.nan + 0j
        with pytest.raises(InvalidInputError):
            ComplexImageStack(bad)
        bad[0, 0, 0] = np.inf * 1j
        with pytest.raises(InvalidInputError):
            ComplexImageStack(bad)

    def test_storage_is_complex64(self, small_stack):
        assert small_stack.data.dtype == np.complex64

    def test_immutable(self, small_stack):
        with pytest.raises((ValueError, AttributeError)):
            small_stack.data[0, 0, 0] = 1.0
        with pytest.raises(AttributeError):
            small_stack.data = np.zeros((1, 1, 1), dtype=np.complex64)

    def test_magnitude_is_float64(self):
        st_ = make([[[3 + 4j]]])
        mag = st_.magnitude()
        assert mag.dtype == np.float64
        assert mag[0, 0, 0] == pytest.approx(5.0)


class TestPowerNorm:
    def test_mean_power_hand_value(self):
        st_ = make([[[3 + 4j, 0j], [1j, 1 + 0j]]])
        # (9+16) + 0 + 1 + 1 = 27 over 4 voxels
        assert mean_signal_power(st_) == pytest.approx(27 / 4)

    def test_normalize_hits_target(self, small_stack):
        normed, state = power_normalize(small_stack)
        assert mean_signal_power(normed) == pytest.approx(1600.0, rel=1e-5)
        assert state.k_n == pytest.approx(
            math.sqrt(1600.0 / mean_signal_power(small_stack))
        )

    def test_round_trip(self, small_stack):
        normed, state = power_normalize(small_stack)
        back = power_denormalize(normed, state)
        assert np.allclose(back.data, small_stack.data, rtol=1e-5, atol=1e-6)

    def test_zero_stack_degenerate(self):
        with pytest.raises(DegenerateInputError):
            power_normalize(make(np.zeros((1, 2, 2))))

    def test_state_consistency_enforced(self):
        with pytest.raises(InvalidStateError):
            PowerNormState(k_n=2.0, source_power=1600.0)
        PowerNormState(k_n=1.0, source_power=1600.0)  # consistent

    def test_denormalize_rejects_bad_state(self, small_stack):
        state = PowerNormState(k_n=1.0, source_power=1600.0)
        object.__setattr__(state, "k_n", -1.0)
        with pytest.raises(InvalidStateError):
            power_denormalize(small_stack, state)

    @given(
        scale=st.floats(min_value=1e-3, max_value=1e3),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=25, deadline=None)
    def test_normalized_power_invariant(self, scale, seed):
        rng = np.random.default_rng(seed)
        data = (rng.normal(size=(2, 8, 8)) + 1j * rng.normal(size=(2, 8, 8))) * scale
        normed, _ = power_normalize(ComplexImageStack(data.astype(np.complex64)))
        assert mean_signal_power(normed) == pytest.approx(1600.0, rel=1e-4)


class TestCombination:
    def test_rss_hand_case(self):
        a = make([[[3 + 0j]]])
        b = make([[[4 + 0j]]])
        out = coil_combine_rss([a, b])
        assert out.data[0, 0, 0] == pytest.approx(5.0 + 0j)

    def test_rss_components_nonnegative(self, rng):
        coils = [
            ComplexImageStack(
                (rng.normal(size=(2, 4, 4)) + 1j * rng.normal(size=(2, 4, 4))).astype(
                    np.complex64
                )
            )
            for _ in range(3)
        ]
        out = coil_combine_rss(coils)
        assert (out.data.real >= 0).all()
        assert (out.data.imag >= 0).all()

    def test_rss_shape_mismatch(self, small_stack):
        other = make(np.zeros((3, 8, 8)))
        with pytest.raises(InvalidInputError):
            coil_combine_rss([small_stack, other])

    def test_average_repetitions(self):
        a = make([[[2 + 2j]]])
        b = make([[[4 + 0j]]])
        out = average_repetitions([a, b])
        assert out.data[0, 0, 0] == pytest.approx(3 + 1j)

    def test_average_reduces_noise(self, rng):
        reps = [
            ComplexImageStack(
                (rng.normal(size=(1, 32, 32)) + 1j * rng.normal(size=(1, 32, 32))).astype(
                    np.complex64
                )
            )
            for _ in range(16)
        ]
        avg = average_repetitions(reps)
        single_power = np.mean([mean_signal_power(r) for r in reps])
        assert mean_signal_power(avg) < single_power / 8


class TestExport:
    def test_peak_maps_to_8192(self):
        st_ = make([[[2 + 0j, 1 + 0j]]])
        u16 = export_u16(st_)
        assert u16.dtype == np.uint16
        assert u16[0, 0, 0] == 8192
        assert u16[0, 0, 1] == 4096

    def test_rounds_half_up(self):
        # magnitudes 1 and 3 -> scale 8192/3; 8192/3 = 2730.67 -> 2731
        st_ = make([[[1 + 0j, 3 + 0j]]])
        u16 = export_u16(st_)
        assert u16[0, 0, 0] == 2731

    def test_all_zero(self):
        assert (export_u16(make(np.zeros((2, 3, 3)))) == 0).all()

    def test_pgm_files(self, tmp_path, small_stack):
        paths = write_pgm_slices(small_stack, tmp_path / "out")
        assert [p.name for p in paths] == ["out_s0.pgm", "out_s1.pgm", "out_s2.pgm"]
        raw = paths[0].read_bytes()
        assert raw.startswith(b"P5\n16 16\n65535\n")
        body = raw.split(b"65535\n", 1)[1]
        assert len(body) == 16 * 16 * 2
        decoded = np.frombuffer(body, dtype=">u2").reshape(16, 16)
        assert np.array_equal(decoded, export_u16(small_stack)[0])


class TestStackFile:
    def test_round_trip_bit_exact(self, tmp_path, small_stack):
        path = tmp_path / "stack.imts"
        save_stack(small_stack, path)
        again = load_stack(path)
        assert np.array_equal(
            again.data.view(np.float32), small_stack.data.view(np.float32)
        )

    def test_header_layout(self, tmp_path, small_stack):
        path = tmp_path / "stack.imts"
        save_stack(small_stack, path)
        raw = path.read_bytes()
        assert raw[:8] == b"IMTMRD01"
        s, h, w = np.frombuffer(raw[8:20], dtype="<u4")
        assert (s, h, w) == (3, 16, 16)
        assert raw[20] == 0
        assert len(raw) == 21 + 3 * 16 * 16 * 8

    def test_gmap_round_trip(self, tmp_path):
        gmap = GFactorMap(np.linspace(1, 2, 12, dtype=np.float32).reshape(3, 4))
        path = tmp_path / "g.imts"
        save_gmap(gmap, path)
        again = load_gmap(path)
        assert np.array_equal(again.values, gmap.values)
        assert path.read_bytes()[20] == 1

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.imts"
        path.write_bytes(b"IMTMRD01\x01")
        with pytest.raises(TruncationError):
            load_stack(path)

    def test_bad_magic_offset(self, tmp_path):
        path = tmp_path / "bad.imts"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 40)
        with pytest.raises(FormatError) as exc:
            load_stack(path)
        assert exc.value.offset == 0
        assert not isinstance(exc.value, TruncationError)

    def test_zero_dimension(self, tmp_path):
        import struct

        path = tmp_path / "zero.imts"
        path.write_bytes(b"IMTMRD01" + struct.pack("<IIIB", 0, 4, 4, 0))
        with pytest.raises(FormatError) as exc:
            load_stack(path)
        assert exc.value.offset == 8

    def test_dimension_overflow(self, tmp_path):
        import struct

        path = tmp_path / "huge.imts"
        path.write_bytes(b"IMTMRD01" + struct.pack("<IIIB", 2**20, 2**20, 4096, 0))
        with pytest.raises(FormatError) as exc:
            load_stack(path)
        assert exc.value.offset == 8

    def test_unknown_dtype_flag(self, tmp_path):
        import struct

        path = tmp_path / "flag.imts"
        path.write_bytes(b"IMTMRD01" + struct.pack("<IIIB", 1, 1, 1, 7) + b"\x00" * 8)
        with pytest.raises(FormatError) as exc:
            load_stack(path)
        assert exc.value.offset == 20

    def test_truncated_payload_offset(self, tmp_path, small_stack):
        path = tmp_path / "cut.imts"
        save_stack(small_stack, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-5])
        with pytest.raises(TruncationError) as exc:
            load_stack(path)
        assert exc.value.offset == len(raw) - 5

    def test_trailing_bytes_rejected(self, tmp_path, small_stack):
        path = tmp_path / "extra.imts"
        save_stack(small_stack, path)
        path.write_bytes(path.read_bytes() + b"xx")
        with pytest.raises(FormatError):
            load_stack(path)

    def test_no_temp_file_left(self, tmp_path, small_stack):
        save_stack(small_stack, tmp_path / "a.imts")
        assert [p.name for p in tmp_path.iterdir()] == ["a.imts"]

    @staticmethod
    def _peak_bytes(fn):
        """Peak traced bytes ``fn`` allocates above what was live before it."""
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = fn()
            return tracemalloc.get_traced_memory()[1] - base, result
        finally:
            tracemalloc.stop()

    def test_save_does_not_copy_payload(self, tmp_path):
        # 32 x 256 x 256 complex64: a 16 MB payload, written straight from the array
        stack = ComplexImageStack(np.full((32, 256, 256), 1 + 2j, dtype=np.complex64))
        path = tmp_path / "big.imts"
        peak, _ = self._peak_bytes(lambda: save_stack(stack, path))
        assert peak < stack.data.nbytes // 4
        assert path.stat().st_size == 21 + stack.data.nbytes

    def test_load_reads_payload_in_place(self, tmp_path):
        # one payload array plus the finiteness mask, no staging copies
        stack = ComplexImageStack(np.full((32, 256, 256), 1 + 2j, dtype=np.complex64))
        path = tmp_path / "big.imts"
        save_stack(stack, path)
        peak, loaded = self._peak_bytes(lambda: load_stack(path))
        assert peak < 1.5 * stack.data.nbytes
        assert loaded == stack
        assert loaded.data.flags.aligned and loaded.data.flags.c_contiguous
