import io
import re
import struct

import numpy as np
import pytest

from specqd.artifacts import (
    BadConfig,
    BadMagic,
    BadPayload,
    MissingSection,
    ShapeMismatch,
    TruncatedPayload,
    VersionMismatch,
    load_model,
    load_prompts,
    load_tensor,
    pack_nibbles,
    save_model,
    save_tensor,
    unpack_nibbles,
)
from specqd.mxfp4 import BLOCK_SIZE, quantize_direct_cast
from specqd.tinylm import (
    KvCache,
    LmConfig,
    direct_cast_mxfp4,
    forward,
    init_seeded,
    model_checksum,
)

CFG = LmConfig(d_model=32, n_layers=2, n_heads=2, d_ff=64, max_seq_len=64)


class TestNibbles:
    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        codes = rng.integers(0, 16, size=64).astype(np.uint8)
        assert np.array_equal(unpack_nibbles(pack_nibbles(codes), 64), codes)

    def test_low_nibble_first(self):
        packed = pack_nibbles(np.array([0x3, 0xA], dtype=np.uint8))
        assert packed == bytes([0xA3])

    def test_density(self):
        codes = np.zeros(128, dtype=np.uint8)
        assert len(pack_nibbles(codes)) == 64


class TestTensorRoundtrip:
    def test_f32(self, tmp_path):
        x = np.random.default_rng(1).standard_normal((5, 7)).astype(
            np.float32
        ).astype(np.float64)
        p = tmp_path / "t.bin"
        with open(p, "wb") as fh:
            save_tensor(fh, x)
        with open(p, "rb") as fh:
            assert np.array_equal(load_tensor(fh), x)

    def test_mxfp4(self, tmp_path):
        t = quantize_direct_cast(
            np.random.default_rng(2).standard_normal((4, 40))
        )
        p = tmp_path / "q.bin"
        with open(p, "wb") as fh:
            save_tensor(fh, t)
        with open(p, "rb") as fh:
            got = load_tensor(fh)
        assert got == t
        assert got.cols == 40 and got.padded_cols == 2 * BLOCK_SIZE

    @pytest.mark.parametrize("cols", [0, 32, 40])
    def test_mxfp4_zero_rows(self, tmp_path, cols):
        t = quantize_direct_cast(np.zeros((0, cols)))
        p = tmp_path / "q.bin"
        with open(p, "wb") as fh:
            save_tensor(fh, t)
        with open(p, "rb") as fh:
            got = load_tensor(fh)
        assert got == t and (got.rows, got.cols) == (0, cols)
        assert got.scale_exp.shape == t.scale_exp.shape

    def test_rejects_1d(self):
        with pytest.raises(ShapeMismatch):
            save_tensor(io.BytesIO(), np.ones(4))

    def test_bad_magic(self):
        with pytest.raises(BadMagic):
            load_tensor(io.BytesIO(b"XXXX" + b"\x00" * 30))

    def test_bad_version(self):
        buf = io.BytesIO()
        save_tensor(buf, np.ones((1, 1), dtype=np.float32))
        data = bytearray(buf.getvalue())
        data[4] = 99
        with pytest.raises(VersionMismatch):
            load_tensor(io.BytesIO(bytes(data)))

    def test_truncated(self):
        buf = io.BytesIO()
        save_tensor(buf, np.ones((4, 4), dtype=np.float32))
        with pytest.raises(TruncatedPayload):
            load_tensor(io.BytesIO(buf.getvalue()[:-3]))

    def test_mxfp4_rejects_nan_scale(self):
        # E8M0 reserves 0xFF for NaN; block_scale_exponents never writes it.
        buf = io.BytesIO()
        save_tensor(buf, quantize_direct_cast(np.ones((2, BLOCK_SIZE))))
        data = bytearray(buf.getvalue())
        assert data[-1] == 125  # the last block's scale, 2^-2
        data[-1] = 0xFF
        with pytest.raises(BadPayload):
            load_tensor(io.BytesIO(bytes(data)))

    @pytest.mark.parametrize("tag", [0, 7])
    def test_mxfp4_rejects_other_layouts(self, tag):
        buf = io.BytesIO()
        save_tensor(buf, quantize_direct_cast(np.ones((2, BLOCK_SIZE))))
        data = bytearray(buf.getvalue())
        assert data[7] == 1  # the k-blocked layout, the only one written
        data[7] = tag
        with pytest.raises(ShapeMismatch):
            load_tensor(io.BytesIO(bytes(data)))


    @pytest.mark.parametrize("tag", [1, 7])
    def test_f32_rejects_other_layouts(self, tag):
        buf = io.BytesIO()
        save_tensor(buf, np.ones((2, 3), dtype=np.float32))
        data = bytearray(buf.getvalue())
        assert data[7] == 0  # the only layout written for f32
        data[7] = tag
        with pytest.raises(ShapeMismatch):
            load_tensor(io.BytesIO(bytes(data)))

    # Declared payloads of 2**48 bytes and more, past any address space: the
    # loader must refuse them from the header, never size a read by them.
    @pytest.mark.parametrize("tensor,rows,cols", [
        (np.ones((2, 3), dtype=np.float32), 2**40, 2**20),
        (np.ones((2, 3), dtype=np.float32), 2**62, 3),
        (quantize_direct_cast(np.ones((2, BLOCK_SIZE))), 2**44, BLOCK_SIZE),
        (quantize_direct_cast(np.ones((2, BLOCK_SIZE))), 2, 2**63),
    ], ids=["f32-2^40x2^20", "f32-2^62-rows", "mxfp4-2^44-rows",
            "mxfp4-2^63-cols"])
    def test_declared_size_beyond_file(self, tmp_path, tensor, rows, cols):
        p = tmp_path / "t.bin"
        with open(p, "wb") as fh:
            save_tensor(fh, tensor)
        data = bytearray(p.read_bytes())
        data[8:24] = struct.pack("<QQ", rows, cols)
        p.write_bytes(bytes(data))
        with open(p, "rb") as fh, pytest.raises(TruncatedPayload):
            load_tensor(fh)


def _rewrite_config(path, model, edit):
    """Save ``model`` to ``path`` with ``edit`` applied to its config text."""
    save_model(path, model)
    data = path.read_bytes()
    # Magic, u16 version, u32 config length, then the config block.
    (cfg_len,) = struct.unpack("<I", data[6:10])
    text = data[10:10 + cfg_len].decode()
    blob = edit(text).encode()
    assert blob != text.encode()
    path.write_bytes(data[:6] + struct.pack("<I", len(blob)) + blob
                     + data[10 + cfg_len:])


def _edit_section(path, name, edit):
    """Replace section ``name`` of the model file at ``path`` by ``edit`` of
    its tensor."""
    data = path.read_bytes()
    nb = name.encode()
    at = data.index(struct.pack("<H", len(nb)) + nb) + 2 + len(nb)
    old = io.BytesIO(data[at:])
    new = io.BytesIO()
    save_tensor(new, edit(load_tensor(old)))
    path.write_bytes(data[:at] + new.getvalue() + data[at + old.tell():])


class TestModelRoundtrip:
    def test_float_model_bit_exact(self, tmp_path):
        m = init_seeded(CFG, 5)
        p = tmp_path / "m.bin"
        save_model(p, m)
        got = load_model(p)
        assert got.gemm_path == "reference"
        assert model_checksum(got) == model_checksum(m)

    def test_quantized_model_bit_exact(self, tmp_path):
        q = direct_cast_mxfp4(init_seeded(CFG, 6))
        p = tmp_path / "q.bin"
        save_model(p, q)
        got = load_model(p)
        assert got.is_quantized and got.gemm_path == "int8"
        assert model_checksum(got) == model_checksum(q)

    def test_bytes_unchanged_by_first_gemm(self, tmp_path):
        # The first GEMM replaces each float weight's values by its slices;
        # saving, hashing and casting must not see the difference.
        m = init_seeded(CFG, 9)

        def outputs(tag):
            save_model(tmp_path / f"{tag}.bin", m)
            save_model(tmp_path / f"{tag}_q.bin", direct_cast_mxfp4(m))
            return [model_checksum(m), (tmp_path / f"{tag}.bin").read_bytes(),
                    (tmp_path / f"{tag}_q.bin").read_bytes()]

        before = outputs("before")
        assert all(lw.weight.values is not None for lw in m.all_linears())
        forward(m, KvCache.empty(CFG), [1, 2, 3])
        assert all(lw.weight.values is None for lw in m.all_linears())
        assert outputs("after") == before
        assert model_checksum(load_model(tmp_path / "after.bin")) == before[0]

    def test_resave_same_bytes(self, tmp_path):
        # Three layers, d_ff not 2 * d_model, and columns that need padding.
        cfg = LmConfig(d_model=48, n_layers=3, n_heads=3, d_ff=80, max_seq_len=40)
        m = init_seeded(cfg, 12)
        for model in (m, direct_cast_mxfp4(m)):
            a, b = tmp_path / "a.bin", tmp_path / "b.bin"
            save_model(a, model)
            save_model(b, load_model(a))
            assert a.read_bytes() == b.read_bytes()

    def test_section_order(self, tmp_path):
        p = tmp_path / "m.bin"
        save_model(p, init_seeded(LmConfig(d_model=32, n_layers=1, n_heads=2), 0))
        data = p.read_bytes()
        names = [name.decode() for name in re.findall(rb"([a-z_0-9.]+)SQDT", data)]
        assert names == ["tok_emb", "pos_emb"] + [
            f"layer0.{name}" for name in ("ln1_g", "ln1_b", "wq", "wk", "wv", "wo",
                                          "w_up", "w_down", "ln2_g", "ln2_b")
        ] + ["final_ln_g", "final_ln_b", "w_out"]

    @pytest.mark.parametrize("name,edit", [
        ("tok_emb", quantize_direct_cast),
        ("pos_emb", quantize_direct_cast),
        ("layer0.ln1_g", quantize_direct_cast),
        ("final_ln_b", quantize_direct_cast),
        ("layer1.ln2_b", lambda t: np.zeros((1, 1))),
        ("layer0.ln1_g", lambda t: np.ones((3, CFG.d_model))),
        ("final_ln_g", lambda t: np.ones((1, CFG.d_model // 2))),
        ("layer0.w_up", lambda t: t[:CFG.d_model]),
    ], ids=["mxfp4-tok_emb", "mxfp4-pos_emb", "mxfp4-norm", "mxfp4-final-norm",
            "norm-1x1", "norm-3xd", "norm-half-d", "float-linear-shape"])
    def test_section_kind_and_shape_checked(self, tmp_path, name, edit):
        # Only a linear may be MXFP4, and every section has its config's shape.
        p = tmp_path / "m.bin"
        save_model(p, init_seeded(CFG, 13))
        _edit_section(p, name, edit)
        with pytest.raises(ShapeMismatch, match=re.escape(name)):
            load_model(p)

    def test_config_preserved(self, tmp_path):
        m = init_seeded(CFG, 7)
        p = tmp_path / "m.bin"
        save_model(p, m)
        assert load_model(p).config == CFG

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "junk.bin"
        p.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(BadMagic):
            load_model(p)

    def test_missing_section(self, tmp_path):
        m = init_seeded(CFG, 8)
        p = tmp_path / "m.bin"
        save_model(p, m)
        data = bytearray(p.read_bytes())
        # Rename a required section so lookup fails.
        idx = data.find(b"w_out")
        data[idx : idx + 5] = b"w_xxx"
        p.write_bytes(bytes(data))
        with pytest.raises(MissingSection):
            load_model(p)

    def test_section_name_not_utf8(self, tmp_path):
        p = tmp_path / "m.bin"
        save_model(p, init_seeded(CFG, 8))
        data = bytearray(p.read_bytes())
        data[data.find(b"tok_emb")] = 0xFF
        p.write_bytes(bytes(data))
        with pytest.raises(MissingSection, match="tok_emb"):
            load_model(p)

    def test_repeated_section(self, tmp_path):
        p = tmp_path / "m.bin"
        save_model(p, init_seeded(CFG, 8))
        data = p.read_bytes()
        # The section count follows the config block.
        at = 10 + struct.unpack("<I", data[6:10])[0]
        (n_sections,) = struct.unpack("<I", data[at:at + 4])
        extra = io.BytesIO()
        extra.write(struct.pack("<H", len(b"final_ln_g")) + b"final_ln_g")
        save_tensor(extra, np.zeros((1, CFG.d_model)))
        p.write_bytes(data[:at] + struct.pack("<I", n_sections + 1)
                      + data[at + 4:] + extra.getvalue())
        with pytest.raises(ShapeMismatch, match="repeats tensor 'final_ln_g'"):
            load_model(p)

    def test_sections_beyond_config(self, tmp_path):
        # Two layers' sections under a one-layer config.
        p = tmp_path / "m.bin"
        _rewrite_config(p, init_seeded(CFG, 8),
                        lambda text: text.replace("n_layers=2", "n_layers=1"))
        with pytest.raises(ShapeMismatch, match="layer1.wq"):
            load_model(p)

    def test_legacy_gemm_path_line(self, tmp_path):
        # Files written before the weights alone picked the kernel say int8.
        for m in (init_seeded(CFG, 11), direct_cast_mxfp4(init_seeded(CFG, 11))):
            p = tmp_path / "m.bin"
            _rewrite_config(p, m, lambda text: text + "\ngemm_path='int8'")
            assert model_checksum(load_model(p)) == model_checksum(m)

    @pytest.mark.parametrize("edit", [
        lambda text: text.replace("d_model=32", "d_model="),  # no value
        lambda text: text + "\nfoo=1",  # unknown key
        lambda text: text.replace("d_model=32", "d_model='x'"),  # wrong type
        lambda text: text.replace("d_model=32", "d_model=32.0"),
        lambda text: text.replace("norm_epsilon=1e-05", "norm_epsilon='x'"),
        lambda text: text + "\ngemm_path='latescale_f32'",
        lambda text: text + "\nnorm_epsilon=0.5",
        lambda text: text.replace("\nnorm_epsilon=1e-05", ""),
        lambda text: "",
    ], ids=["empty-value", "unknown-key", "wrong-type", "float-dimension",
            "text-epsilon", "unknown-gemm-path", "repeated-key", "missing-key",
            "empty-block"])
    def test_corrupt_config_block(self, tmp_path, edit):
        p = tmp_path / "m.bin"
        _rewrite_config(p, init_seeded(CFG, 10), edit)
        with pytest.raises(BadConfig):
            load_model(p)

    def test_config_length_beyond_file(self, tmp_path):
        p = tmp_path / "m.bin"
        save_model(p, init_seeded(CFG, 10))
        data = p.read_bytes()
        p.write_bytes(data[:6] + struct.pack("<I", 2**32 - 1) + data[10:])
        with pytest.raises(TruncatedPayload):
            load_model(p)

    def test_truncated_file(self, tmp_path):
        m = init_seeded(CFG, 9)
        p = tmp_path / "m.bin"
        save_model(p, m)
        p.write_bytes(p.read_bytes()[:-100])
        with pytest.raises(TruncatedPayload):
            load_model(p)


class TestPrompts:
    def test_token_ids(self, tmp_path):
        p = tmp_path / "prompts.txt"
        p.write_text("1 2 3\n\n7 8\n")
        assert load_prompts(p) == [[1, 2, 3], [7, 8]]

    def test_byte_mode(self, tmp_path):
        p = tmp_path / "prompts.txt"
        p.write_text("ab\n")
        assert load_prompts(p, byte_mode=True) == [[97, 98]]

    def test_bad_token(self, tmp_path):
        p = tmp_path / "prompts.txt"
        p.write_text("1 two\n")
        with pytest.raises(ValueError):
            load_prompts(p)
