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
block (``LmConfig``'s fields), then the model's named tensor sections, each
once, in the order of ``_model_tensor_items``. A linear's section is float or
MXFP4, any other float, each of exactly the shape the config gives it. Every
failure mode raises a typed error and never yields a partial object.
"""

from __future__ import annotations

import ast
import io
import struct
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .mxfp4 import BLOCK_SIZE, MxfpTensor
from .tinylm import (LAYER_NORMS, LayerWeights, LinearWeight, LmConfig, TinyLmModel,
                     linear_shapes)

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


def _model_tensor_items(model: TinyLmModel) -> list:
    """Each section's name and tensor, in file order: a vector is stored as
    one row, a linear as its weight."""
    items = [("tok_emb", model.tok_emb), ("pos_emb", model.pos_emb)]
    items += [(f"layer{i}.{f.name}", getattr(layer, f.name))
              for i, layer in enumerate(model.layers) for f in fields(layer)]
    items += [("final_ln_g", model.final_ln_g), ("final_ln_b", model.final_ln_b),
              ("w_out", model.w_out)]
    return [(name, t.weight if isinstance(t, LinearWeight) else np.atleast_2d(t))
            for name, t in items]


def save_model(path, model: TinyLmModel):
    buf = io.BytesIO()
    config_blob = "\n".join(
        f"{k}={v!r}" for k, v in asdict(model.config).items()).encode()
    buf.write(MODEL_MAGIC)
    buf.write(struct.pack("<HI", VERSION, len(config_blob)))
    buf.write(config_blob)
    sections = _model_tensor_items(model)
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
        values = {}
        for line in blob.decode().splitlines():
            key, _, value = line.partition("=")
            if key in values:
                raise ValueError(f"{key} repeats")
            values[key] = ast.literal_eval(value)
        legacy = values.pop("gemm_path", "int8")  # older files name the kernel
        if missing := [f.name for f in fields(LmConfig) if f.name not in values]:
            raise ValueError(f"no {', '.join(missing)}")
        config = LmConfig(**values)
    except (SyntaxError, ValueError, TypeError) as exc:
        raise BadConfig(f"bad model config block: {exc}") from exc
    for f in fields(config):
        # A field takes its default's type; an int serves a float field too.
        value = getattr(config, f.name)
        if type(value) not in (int, type(f.default)):
            raise BadConfig(f"bad model config block: {f.name}={value!r} "
                            "has the wrong type")
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

    def take(name, shape, linear=False):
        """Section ``name``: a float tensor of ``shape`` or, for a linear
        only, an MXFP4 one."""
        if name not in tensors:
            raise MissingSection(f"model file missing tensor {name!r}")
        t = tensors.pop(name)
        mxfp4 = isinstance(t, MxfpTensor)
        got = (t.rows, t.cols) if mxfp4 else t.shape
        if got != shape or mxfp4 and not linear:
            raise ShapeMismatch(f"{name}: expected {'' if linear else 'float '}"
                                f"{shape}, got {'MXFP4 ' if mxfp4 else ''}{got}")
        return LinearWeight(t) if linear else t

    d = config.d_model
    layers = [LayerWeights(
        **{name: take(f"layer{i}.{name}", (1, d))[0] for name in LAYER_NORMS},
        **{name: take(f"layer{i}.{name}", shape, linear=True)
           for name, shape in linear_shapes(config).items()})
        for i in range(config.n_layers)]
    model = TinyLmModel(
        config=config,
        tok_emb=take("tok_emb", (config.vocab_size, d)),
        pos_emb=take("pos_emb", (config.max_seq_len, d)),
        layers=layers,
        final_ln_g=take("final_ln_g", (1, d))[0],
        final_ln_b=take("final_ln_b", (1, d))[0],
        w_out=take("w_out", (config.vocab_size, d), linear=True),
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
