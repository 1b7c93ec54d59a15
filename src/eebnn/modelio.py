"""Single-file model container.

Layout (all integers little-endian):

    bytes 0..3   magic "EEBN"
    bytes 4..5   format version (u16)
    bytes 6..9   header length H (u32)
    bytes 10..   UTF-8 JSON header of H bytes
    remainder    blob section

The JSON header carries the architecture, training metadata, and a blob
directory (name, kind, dtype, logical shape, offset into the blob section,
byte size, crc32). Binary conv/dense weights are stored as their packed sign
bits (uint64 words), which is what makes a saved binary model about 1/32 the
size of its float equivalent; everything real-valued is float32.

Sign bits are packed along the innermost axis (input channels of a conv
weight ``(out, k, k, in)``, features of a dense weight ``(units, features)``)
into 64-bit words (`BitTensor`). Bit 1 encodes +1 and bit 0 encodes -1, and
the pad bits of a trailing partial word are stored as +1.

Loading verifies magic, version, the header schema (field types, and a
blob size that matches each blob's kind and shape) and every checksum
before any model object is constructed, so a corrupted file never yields a
partial model and every defect surfaces as a ModelFormatError naming the
file. Saving
writes to a temporary file and renames it into place. No timestamps are
stored: identical model state produces identical bytes.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import zlib
from pathlib import Path

import numpy as np

from . import arch, layers

MAGIC = b"EEBN"
VERSION = 1
BLOB_KINDS = ("bits", "f32")


class ModelFormatError(Exception):
    """Base for unreadable model files."""


class BadMagicError(ModelFormatError):
    pass


class VersionError(ModelFormatError):
    pass


class TruncatedError(ModelFormatError):
    pass


class ChecksumError(ModelFormatError):
    pass


# --- packed sign bits ------------------------------------------------------

WORD_BITS = 64


def _word_count(n: int) -> int:
    return (n + WORD_BITS - 1) // WORD_BITS


@dataclasses.dataclass(frozen=True)
class BitTensor:
    """A ±1 tensor packed along its innermost axis.

    ``words`` has shape ``shape[:-1] + (ceil(shape[-1] / 64),)`` and dtype
    uint64. Bit ``i`` of a row lives in word ``i // 64`` at position
    ``i % 64``.
    """

    shape: tuple[int, ...]
    words: np.ndarray

    def __post_init__(self):
        expected = self.shape[:-1] + (_word_count(self.shape[-1]),)
        if self.words.shape != expected:
            raise ValueError(
                f"word array shape {self.words.shape} does not match logical "
                f"shape {self.shape} (expected {expected})"
            )
        self.words.setflags(write=False)


def binarize(t: np.ndarray) -> BitTensor:
    """Map a float tensor element-wise through sign and pack it.

    Sign is `layers.binarized`, so sign(0) = +1. Raises ValueError naming
    the offending index if the input contains NaN or infinity.
    """
    t = np.asarray(t)
    if t.ndim == 0:
        raise ValueError("cannot binarize a scalar")
    finite = np.isfinite(t)
    if not finite.all():
        idx = tuple(int(i) for i in np.argwhere(~finite)[0])
        raise ValueError(f"non-finite value {t[idx]} at index {idx}")
    return _pack_bits(layers.binarized(t) > 0)


def _pack_bits(bits: np.ndarray) -> BitTensor:
    """Pack a boolean array along its last axis; pad bits are set to 1 (+1)."""
    shape = bits.shape
    n = shape[-1]
    padded = _word_count(n) * WORD_BITS
    if padded != n:
        pad = np.ones(shape[:-1] + (padded - n,), dtype=bool)
        bits = np.concatenate([bits.astype(bool), pad], axis=-1)
    packed = np.packbits(np.ascontiguousarray(bits), axis=-1, bitorder="little")
    words = np.ascontiguousarray(packed).view(np.uint64)
    return BitTensor(shape=tuple(shape), words=words)


def unpack(bt: BitTensor) -> np.ndarray:
    """Expand a BitTensor back to a float32 ±1 array."""
    bytes_ = np.ascontiguousarray(bt.words).view(np.uint8)
    bits = np.unpackbits(bytes_, axis=-1, bitorder="little")
    bits = bits[..., : bt.shape[-1]]
    return (bits.astype(np.float32) * 2.0 - 1.0).reshape(bt.shape)


def parameter_bits(shape: tuple[int, ...]) -> int:
    """Stored bits for a packed tensor of the given logical shape."""
    rows = math.prod(shape[:-1]) if len(shape) > 1 else 1
    return rows * _word_count(shape[-1]) * WORD_BITS


# --- the container ---------------------------------------------------------


def _blob_entries(model: arch.Model):
    """(name, kind, array) for every persisted tensor, in a fixed order."""
    for path, lay in model.named_layers():
        binary = lay.binary_param_names()
        for pname, arr in lay.params().items():
            kind = "bits" if pname in binary else "f32"
            yield f"{path}.{pname}", kind, arr
        for bname, buf in lay.buffers().items():
            yield f"{path}.{bname}", "f32", buf


def _pack_blob(kind: str, arr: np.ndarray) -> tuple[bytes, list[int]]:
    if kind == "bits":
        words = binarize(arr).words.astype("<u8")
        return words.tobytes(), list(arr.shape)
    return np.ascontiguousarray(arr, dtype="<f4").tobytes(), list(arr.shape)


def _blob_nbytes(kind: str, shape: list[int]) -> int:
    if kind == "bits":
        return parameter_bits(tuple(shape)) // 8
    return 4 * math.prod(shape)


def _is_count(v) -> bool:
    """A non-negative JSON integer (booleans excluded)."""
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def _check_header(header, path: Path) -> None:
    """Field types of the header and a consistent size for every blob."""
    if not isinstance(header, dict):
        raise ModelFormatError(f"{path}: header is not a JSON object")
    for key, typ, default in (("arch", dict, None), ("blobs", list, None), ("meta", dict, {})):
        if not isinstance(header.get(key, default), typ):
            raise ModelFormatError(f"{path}: header field {key!r} is missing or of the wrong type")
    if not _is_count(header.get("seed", 0)):
        raise ModelFormatError(f"{path}: header seed {header['seed']!r} is not a non-negative integer")
    for i, entry in enumerate(header["blobs"]):
        if (not isinstance(entry, dict) or not isinstance(entry.get("name"), str)
                or entry.get("kind") not in BLOB_KINDS
                or not all(_is_count(entry.get(k)) for k in ("offset", "size", "crc32"))):
            raise ModelFormatError(
                f"{path}: blob entry {i} needs a name, a kind in {BLOB_KINDS} and "
                "non-negative integer offset, size and crc32"
            )
        shape = entry.get("shape")
        if not isinstance(shape, list) or not shape or not all(_is_count(d) and d > 0 for d in shape):
            raise ModelFormatError(f"{path}: blob {entry['name']} has bad shape {shape!r}")
        need = _blob_nbytes(entry["kind"], shape)
        if entry["size"] != need:
            raise ModelFormatError(
                f"{path}: blob {entry['name']} of shape {shape} takes {need} bytes, "
                f"the directory says {entry['size']}"
            )


def _unpack_blob(kind: str, raw: bytes, shape: list[int]) -> np.ndarray:
    shape = tuple(shape)
    if kind == "bits":
        n_words = _word_count(shape[-1])
        words = np.frombuffer(raw, dtype="<u8").reshape(shape[:-1] + (n_words,))
        bt = BitTensor(shape, words.astype(np.uint64))
        return unpack(bt).astype(np.float32)
    return np.frombuffer(raw, dtype="<f4").reshape(shape).astype(np.float32)


def save_model(model: arch.Model, path, meta: dict | None = None) -> dict:
    """Write the container; returns a size report."""
    entries = []
    payloads = []
    offset = 0
    binary_bytes = 0
    binary_elems = 0
    float_bytes = 0
    for name, kind, arr in _blob_entries(model):
        raw, shape = _pack_blob(kind, arr)
        entries.append(
            {
                "name": name,
                "kind": kind,
                "shape": shape,
                "offset": offset,
                "size": len(raw),
                "crc32": zlib.crc32(raw),
            }
        )
        payloads.append(raw)
        offset += len(raw)
        if kind == "bits":
            binary_bytes += len(raw)
            binary_elems += arr.size
        else:
            float_bytes += len(raw)
    header = {
        "arch": dataclasses.asdict(model.spec),
        "seed": model.seed,
        "meta": meta or {},
        "blobs": entries,
    }
    header_raw = json.dumps(header, sort_keys=True).encode("utf-8")
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(MAGIC)
        fh.write(VERSION.to_bytes(2, "little"))
        fh.write(len(header_raw).to_bytes(4, "little"))
        fh.write(header_raw)
        for raw in payloads:
            fh.write(raw)
    os.replace(tmp, path)
    file_bytes = 10 + len(header_raw) + offset
    return {
        "path": str(path),
        "file_bytes": file_bytes,
        "header_bytes": len(header_raw),
        "binary_blob_bytes": binary_bytes,
        "binary_as_float_bytes": 4 * binary_elems,
        "float_blob_bytes": float_bytes,
        "compression_ratio": (binary_bytes / (4 * binary_elems)) if binary_elems else None,
    }


def load_model(path) -> tuple[arch.Model, dict]:
    """Read and verify a container; returns (model, meta)."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as e:
        raise ModelFormatError(f"cannot read {path}: {e}") from e
    if len(raw) < 10:
        raise TruncatedError(f"{path}: {len(raw)} bytes is shorter than the fixed prefix")
    if raw[:4] != MAGIC:
        raise BadMagicError(f"{path}: magic {raw[:4]!r} is not {MAGIC!r}")
    version = int.from_bytes(raw[4:6], "little")
    if version != VERSION:
        raise VersionError(f"{path}: format version {version}, this reader handles {VERSION}")
    header_len = int.from_bytes(raw[6:10], "little")
    if len(raw) < 10 + header_len:
        raise TruncatedError(f"{path}: header claims {header_len} bytes, file ends early")
    try:
        header = json.loads(raw[10 : 10 + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
        raise ModelFormatError(f"{path}: unreadable header: {e}") from e
    _check_header(header, path)
    blob_base = 10 + header_len
    blobs = {}
    for entry in header["blobs"]:
        lo = blob_base + entry["offset"]
        hi = lo + entry["size"]
        if hi > len(raw):
            raise TruncatedError(
                f"{path}: blob {entry['name']} extends to byte {hi}, file has {len(raw)}"
            )
        chunk = raw[lo:hi]
        if zlib.crc32(chunk) != entry["crc32"]:
            raise ChecksumError(f"{path}: checksum mismatch in blob {entry['name']}")
        blobs[entry["name"]] = entry["kind"], _unpack_blob(entry["kind"], chunk, entry["shape"])

    try:
        model = arch.build(arch.ArchSpec(**header["arch"]), seed=header.get("seed", 0))
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise ModelFormatError(f"{path}: bad architecture {header['arch']}: {e}") from e
    for name, kind, arr in _blob_entries(model):
        if name not in blobs:
            raise ModelFormatError(f"{path}: missing blob {name}")
        stored, loaded = blobs[name]
        if stored != kind or loaded.shape != arr.shape:
            raise ModelFormatError(
                f"{path}: blob {name} is {stored} of shape {loaded.shape}, "
                f"expected {kind} of shape {arr.shape}"
            )
        arr[...] = loaded
    return model, header.get("meta", {})
