"""Bit-exact binary serialization for tensors and models.

Tensor section layout (little-endian throughout):

    magic  b"SQDT"
    u16    version (currently 1)
    u8     dtype tag: 0 = f32, 1 = mxfp4
    u8     layout tag: 0 for f32, 1 (k-blocked, the only layout) for mxfp4
    u64    rows, u64 cols (logical, pre-padding)
    payload:
      f32   rows * cols float32 values, row-major
      mxfp4 rows * padded_cols / 2 packed code bytes (low nibble = even
            column index), then rows * padded_cols / 32 scale bytes

Model files are a b"SQDM" header, a length-prefixed UTF-8 key=value config
block, then the model's named tensor sections, each once. Every failure mode
raises a typed error and never yields a partial object.
"""

from __future__ import annotations

import ast
import io
import struct
from pathlib import Path

import numpy as np

from .mxfp4 import BLOCK_SIZE, MxfpTensor
from .tinylm import LayerWeights, LinearWeight, LmConfig, TinyLmModel

TENSOR_MAGIC = b"SQDT"
MODEL_MAGIC = b"SQDM"
VERSION = 1

_DTYPE_F32 = 0
_DTYPE_MXFP4 = 1
_LAYOUT_K_BLOCKED = 1
# The layout tag each dtype tag is written with; no other pair is read.
_LAYOUT_OF = {_DTYPE_F32: 0, _DTYPE_MXFP4: _LAYOUT_K_BLOCKED}
# Reads of more bytes check the stream's length first, at the cost of two
# seeks and the read buffer; a smaller one may simply come back short.
_CHECK_ABOVE = 1 << 24


class ArtifactError(Exception):
    """Base class for serialization failures."""


class BadMagic(ArtifactError):
    pass


class VersionMismatch(ArtifactError):
    pass


class TruncatedPayload(ArtifactError):
    pass


class ShapeMismatch(ArtifactError):
    pass


class MissingSection(ArtifactError):
    pass


class BadConfig(ArtifactError):
    """The model file's config block does not describe a valid LmConfig."""


class BadPayload(ArtifactError):
    """A tensor payload holds a value its format reserves."""


def _read_exact(stream, n: int) -> bytes:
    """``n`` bytes, or ``TruncatedPayload``: raised before reading when ``n``
    is large, so a corrupt header's size never reaches an allocation."""
    if n > _CHECK_ABOVE:
        here = stream.tell()
        left = stream.seek(0, io.SEEK_END) - here
        stream.seek(here)
        if left < n:
            raise TruncatedPayload(f"header declares {n} bytes, {left} remain")
    data = stream.read(n)
    if len(data) != n:
        raise TruncatedPayload(f"expected {n} bytes, got {len(data)}")
    return data


def pack_nibbles(codes: np.ndarray) -> bytes:
    """Two 4-bit codes per byte, low nibble first."""
    flat = codes.reshape(-1)
    return ((flat[0::2] & 0xF) | ((flat[1::2] & 0xF) << 4)).astype(np.uint8).tobytes()


def unpack_nibbles(data: bytes, count: int) -> np.ndarray:
    packed = np.frombuffer(data, dtype=np.uint8)
    out = np.empty(count, dtype=np.uint8)
    out[0::2] = packed & 0xF
    out[1::2] = packed >> 4
    return out


def save_tensor(stream, tensor):
    if isinstance(tensor, MxfpTensor):
        dtype, layout = _DTYPE_MXFP4, _LAYOUT_K_BLOCKED
        rows, cols = tensor.rows, tensor.cols
        payload = pack_nibbles(tensor.codes) + tensor.scale_exp.tobytes()
    else:
        arr = np.ascontiguousarray(tensor, dtype=np.float32)
        if arr.ndim != 2:
            raise ShapeMismatch(f"tensors must be 2-D, got shape {arr.shape}")
        dtype, layout = _DTYPE_F32, 0
        rows, cols = arr.shape
        payload = arr.tobytes()
    stream.write(TENSOR_MAGIC)
    stream.write(struct.pack("<HBBQQ", VERSION, dtype, layout, rows, cols))
    stream.write(payload)


def load_tensor(stream):
    magic = _read_exact(stream, 4)
    if magic != TENSOR_MAGIC:
        raise BadMagic(f"bad tensor magic {magic!r}")
    version, dtype, layout, rows, cols = struct.unpack(
        "<HBBQQ", _read_exact(stream, 20)
    )
    if version != VERSION:
        raise VersionMismatch(f"tensor version {version}, expected {VERSION}")
    if _LAYOUT_OF.get(dtype) != layout:
        raise ShapeMismatch(f"unknown dtype/layout tags {dtype}/{layout}")
    if dtype == _DTYPE_F32:
        payload = _read_exact(stream, rows * cols * 4)
        return np.frombuffer(payload, dtype="<f4").reshape(rows, cols).astype(np.float64)
    padded = -(-cols // BLOCK_SIZE) * BLOCK_SIZE
    codes = unpack_nibbles(
        _read_exact(stream, rows * padded // 2), rows * padded
    ).reshape(rows, padded)
    scales = np.frombuffer(
        _read_exact(stream, rows * padded // BLOCK_SIZE), dtype=np.uint8
    ).reshape(rows, padded // BLOCK_SIZE).copy()
    if (scales == 0xFF).any():
        raise BadPayload("mxfp4 scale byte 0xFF, which E8M0 reserves for NaN")
    return MxfpTensor(rows, cols, codes, scales)


def save_tensor_file(path, tensor):
    with open(path, "wb") as fh:
        save_tensor(fh, tensor)


def load_tensor_file(path):
    with open(path, "rb") as fh:
        return load_tensor(fh)


_CONFIG_KEYS = ("vocab_size", "d_model", "n_layers", "n_heads", "d_ff",
                "max_seq_len", "norm_epsilon")


def _model_tensor_items(model: TinyLmModel):
    yield "tok_emb", model.tok_emb
    yield "pos_emb", model.pos_emb
    for i, layer in enumerate(model.layers):
        yield f"layer{i}.ln1_g", layer.ln1_g[None, :]
        yield f"layer{i}.ln1_b", layer.ln1_b[None, :]
        for name in ("wq", "wk", "wv", "wo", "w_up", "w_down"):
            yield f"layer{i}.{name}", getattr(layer, name).weight
        yield f"layer{i}.ln2_g", layer.ln2_g[None, :]
        yield f"layer{i}.ln2_b", layer.ln2_b[None, :]
    yield "final_ln_g", model.final_ln_g[None, :]
    yield "final_ln_b", model.final_ln_b[None, :]
    yield "w_out", model.w_out.weight


def save_model(path, model: TinyLmModel):
    buf = io.BytesIO()
    cfg = model.config
    config_blob = "\n".join(f"{k}={getattr(cfg, k)!r}" for k in _CONFIG_KEYS).encode()
    buf.write(MODEL_MAGIC)
    buf.write(struct.pack("<HI", VERSION, len(config_blob)))
    buf.write(config_blob)
    sections = list(_model_tensor_items(model))
    buf.write(struct.pack("<I", len(sections)))
    for name, tensor in sections:
        nb = name.encode()
        buf.write(struct.pack("<H", len(nb)))
        buf.write(nb)
        save_tensor(buf, tensor)
    Path(path).write_bytes(buf.getvalue())


def _parse_config(blob: bytes) -> LmConfig:
    """The config block's LmConfig; ``BadConfig`` if a key repeats or is
    missing, a value does not parse or has the wrong type, or the fields do
    not make a valid LmConfig."""
    try:
        fields = {}
        for line in blob.decode().splitlines():
            key, _, value = line.partition("=")
            if key in fields:
                raise ValueError(f"{key} repeats")
            fields[key] = ast.literal_eval(value)
        legacy = fields.pop("gemm_path", "int8")  # older files name the kernel
        if missing := [key for key in _CONFIG_KEYS if key not in fields]:
            raise ValueError(f"no {', '.join(missing)}")
        config = LmConfig(**fields)
    except (SyntaxError, ValueError, TypeError) as exc:
        raise BadConfig(f"bad model config block: {exc}") from exc
    for key in _CONFIG_KEYS:
        value = getattr(config, key)
        if type(value) not in ((int, float) if key == "norm_epsilon" else (int,)):
            raise BadConfig(f"bad model config block: {key}={value!r} has the wrong type")
    if legacy != "int8":
        raise BadConfig(f"bad model config block: unknown gemm_path {legacy!r}")
    return config


def load_model(path) -> TinyLmModel:
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 4)
        if magic != MODEL_MAGIC:
            raise BadMagic(f"bad model magic {magic!r}")
        version, cfg_len = struct.unpack("<HI", _read_exact(fh, 6))
        if version != VERSION:
            raise VersionMismatch(f"model version {version}, expected {VERSION}")
        config = _parse_config(_read_exact(fh, cfg_len))
        (n_sections,) = struct.unpack("<I", _read_exact(fh, 4))
        tensors = {}
        for _ in range(n_sections):
            (name_len,) = struct.unpack("<H", _read_exact(fh, 2))
            # A name that is not UTF-8 names no section of the model.
            name = _read_exact(fh, name_len).decode(errors="backslashreplace")
            if name in tensors:
                raise ShapeMismatch(f"model file repeats tensor {name!r}")
            tensors[name] = load_tensor(fh)

    def take(name, vector=False):
        if name not in tensors:
            raise MissingSection(f"model file missing tensor {name!r}")
        t = tensors.pop(name)
        return np.asarray(t)[0] if vector else t

    def linear(name, out_f, in_f):
        t = take(name)
        shape = (t.rows, t.cols) if isinstance(t, MxfpTensor) else t.shape
        if shape != (out_f, in_f):
            raise ShapeMismatch(f"{name}: expected {(out_f, in_f)}, got {shape}")
        return LinearWeight(t)

    d = config.d_model
    tok = take("tok_emb")
    pos = take("pos_emb")
    if tok.shape != (config.vocab_size, d) or pos.shape != (config.max_seq_len, d):
        raise ShapeMismatch("embedding shapes do not match config")
    layers = []
    for i in range(config.n_layers):
        layers.append(LayerWeights(
            ln1_g=take(f"layer{i}.ln1_g", vector=True),
            ln1_b=take(f"layer{i}.ln1_b", vector=True),
            wq=linear(f"layer{i}.wq", d, d),
            wk=linear(f"layer{i}.wk", d, d),
            wv=linear(f"layer{i}.wv", d, d),
            wo=linear(f"layer{i}.wo", d, d),
            ln2_g=take(f"layer{i}.ln2_g", vector=True),
            ln2_b=take(f"layer{i}.ln2_b", vector=True),
            w_up=linear(f"layer{i}.w_up", config.d_ff, d),
            w_down=linear(f"layer{i}.w_down", d, config.d_ff),
        ))
    model = TinyLmModel(
        config=config,
        tok_emb=tok,
        pos_emb=pos,
        layers=layers,
        final_ln_g=take("final_ln_g", vector=True),
        final_ln_b=take("final_ln_b", vector=True),
        w_out=linear("w_out", config.vocab_size, d),
    )
    if tensors:
        raise ShapeMismatch(f"model file has tensors its config does not use: "
                            f"{', '.join(tensors)}")
    return model


def load_prompts(path, byte_mode: bool = False) -> list[list[int]]:
    """One prompt per line: whitespace-separated token ids, or raw text
    mapped through the byte-level identity tokenizer."""
    prompts = []
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        if byte_mode:
            prompts.append(list(line.encode("utf-8")))
        else:
            prompts.append([int(tok) for tok in line.split()])
    return prompts
