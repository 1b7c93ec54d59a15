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

Loading verifies magic, version, the header schema (field types, and a
blob size that matches each blob's kind and shape) and every checksum
before any model object is constructed, so a corrupted file never yields a
partial model and every defect surfaces as a ModelFormatError naming the
file. Saving
writes to a temporary file and renames it into place. No timestamps are
stored: identical model state produces identical bytes.
"""

from __future__ import annotations

import json
import math
import os
import zlib
from pathlib import Path

import numpy as np

from . import arch, bitops

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
        bt = bitops.binarize(arr.astype(np.float64))
        words = bt.words.astype("<u8")
        return words.tobytes(), list(arr.shape)
    return np.ascontiguousarray(arr, dtype="<f4").tobytes(), list(arr.shape)


def _blob_nbytes(kind: str, shape: list[int]) -> int:
    if kind == "bits":
        return bitops.parameter_bits(tuple(shape)) // 8
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
        n_words = bitops._word_count(shape[-1])
        words = np.frombuffer(raw, dtype="<u8").reshape(shape[:-1] + (n_words,))
        bt = bitops.BitTensor(shape, words.astype(np.uint64))
        return bitops.unpack(bt).astype(np.float32)
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
        "arch": model.spec.to_dict(),
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
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
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
        model = arch.build(arch.ArchSpec.from_dict(header["arch"]), seed=header.get("seed", 0))
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
