"""Container format tests: round-trip fidelity, corruption handling, size."""
import json
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eebnn import arch, modelio, runtime
from eebnn.modelio import (BadMagicError, ChecksumError, ModelFormatError, TruncatedError,
                           VersionError, load_model, save_model)


@pytest.fixture(scope="module")
def saved(trained_model, tmp_path_factory):
    path = tmp_path_factory.mktemp("models") / "model.eebnn"
    report = save_model(trained_model, path, meta={"note": "fixture"})
    return path, report


def test_round_trip_bit_exact_stack(saved, trained_model, feature_bank, test_indices):
    path, _ = saved
    loaded, meta = load_model(path)
    assert meta == {"note": "fixture"}
    assert loaded.spec == trained_model.spec
    for i in test_indices[:5]:
        feat = feature_bank.eval_feature(i)
        a = [d for d, _, _ in runtime.exit_outputs(trained_model, feat)]
        b = [d for d, _, _ in runtime.exit_outputs(loaded, feat)]
        assert trained_model.exit_costs == loaded.exit_costs
        assert trained_model.total_macs == loaded.total_macs
        assert len(a) == len(b) == arch.N_EXITS
        for pa, pb in zip(a, b):
            np.testing.assert_array_equal(pa, pb)


def test_round_trip_preserves_real_params_and_buffers(saved, trained_model):
    path, _ = saved
    loaded, _ = load_model(path)
    pairs = zip(trained_model.named_params(), loaded.named_params())
    for (name_a, _, _, arr_a, is_bin), (name_b, _, _, arr_b, _) in pairs:
        assert name_a == name_b
        if is_bin:
            # only the sign survives packing
            np.testing.assert_array_equal(np.sign(arr_a) >= 0, np.sign(arr_b) >= 0)
        else:
            np.testing.assert_array_equal(arr_a, arr_b)
    for (la, a), (lb, b) in zip(trained_model.named_layers(), loaded.named_layers()):
        if hasattr(a, "buffers"):
            for k, buf in a.buffers().items():
                np.testing.assert_array_equal(buf, b.buffers()[k])


def test_save_is_deterministic(trained_model, tmp_path):
    p1 = tmp_path / "a.eebnn"
    p2 = tmp_path / "b.eebnn"
    save_model(trained_model, p1)
    save_model(trained_model, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_size_report_and_compression(saved):
    path, report = saved
    assert report["file_bytes"] == path.stat().st_size
    # word-padded packing: exactly 1/32 when the innermost axis is a multiple
    # of 64, slightly more otherwise; the toy model mixes both
    assert report["compression_ratio"] < 0.06
    assert report["binary_blob_bytes"] < report["binary_as_float_bytes"] / 16
    assert report["header_bytes"] > 0
    assert report["float_blob_bytes"] > 0


def test_exact_ratio_when_word_aligned(tmp_path):
    spec = arch.ArchSpec(family="quicknet", widths=(64, 64), blocks=(3, 3), n_classes=4,
                         input_shape=(12, 10, 1), stem_channels=64)
    model = arch.build(spec, seed=0)
    report = save_model(model, tmp_path / "aligned.eebnn")
    assert report["compression_ratio"] == 1 / 32


def test_missing_file_and_bad_magic(tmp_path):
    with pytest.raises(ModelFormatError):
        load_model(tmp_path / "absent.eebnn")
    bad = tmp_path / "bad.eebnn"
    bad.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(BadMagicError):
        load_model(bad)
    short = tmp_path / "short.eebnn"
    short.write_bytes(b"EEBN\x01")
    with pytest.raises(TruncatedError):
        load_model(short)


def test_version_rejected(saved, tmp_path):
    path, _ = saved
    raw = bytearray(path.read_bytes())
    raw[4:6] = (99).to_bytes(2, "little")
    victim = tmp_path / "v99.eebnn"
    victim.write_bytes(raw)
    with pytest.raises(VersionError, match="version 99"):
        load_model(victim)


def test_truncated_blob_rejected(saved, tmp_path):
    path, _ = saved
    raw = path.read_bytes()
    victim = tmp_path / "cut.eebnn"
    victim.write_bytes(raw[: len(raw) - 100])
    with pytest.raises(TruncatedError):
        load_model(victim)


def test_flipped_payload_byte_rejected(saved, tmp_path):
    path, _ = saved
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0xFF  # last payload byte
    victim = tmp_path / "flip.eebnn"
    victim.write_bytes(raw)
    with pytest.raises(ChecksumError, match="checksum mismatch"):
        load_model(victim)


def test_garbled_header_rejected(saved, tmp_path):
    path, _ = saved
    raw = bytearray(path.read_bytes())
    raw[12] = 0xFF  # inside the JSON header
    victim = tmp_path / "hdr.eebnn"
    victim.write_bytes(raw)
    with pytest.raises(ModelFormatError):
        load_model(victim)


def _swap_first_f32_and_bits(blobs):
    # the first blob the model asks for, stem.w, then holds a binary weight's bits
    real = blobs[0]
    bits = next(b for b in blobs if b["kind"] == "bits")
    real["name"], bits["name"] = bits["name"], real["name"]


def _retiled(blobs, body):
    """The blob section for an edited directory: each entry's bytes end to end, its offset updated.

    So a file breaks only the directory rule its edit names, and not the
    tiling that `test_blobs_must_tile_the_blob_section` checks.
    """
    chunks, offset = [], 0
    for entry in blobs:
        chunks.append(body[entry["offset"]:entry["offset"] + entry["size"]])
        entry["offset"] = offset
        offset += entry["size"]
    return b"".join(chunks)


@pytest.mark.parametrize("edit,tail,message", [
    (lambda blobs: blobs.append({**blobs[0], "name": "ghost.w"}), b"", r"unknown blob\(s\) ghost\.w"),
    (lambda blobs: blobs.append(dict(blobs[-1])), b"", "is listed twice"),
    (None, b"\x00" * 3, "3 bytes follow the last blob"),
    (lambda blobs: blobs.pop(0), b"", r"missing blob stem\.w$"),
    (_swap_first_f32_and_bits, b"", r"blob stem\.w is bits of shape .*, expected f32 of shape"),
], ids=["unknown", "repeated", "trailing-bytes", "missing", "kind-and-shape"])
def test_blob_directory_must_be_the_models(saved, tmp_path, edit, tail, message):
    """The blob directory names each of the model's blobs once, and nothing follows them."""
    path, _ = saved
    raw = path.read_bytes()
    n = int.from_bytes(raw[6:10], "little")
    header = json.loads(raw[10:10 + n])
    assert header["blobs"][0]["name"] == "stem.w"
    if edit is not None:
        edit(header["blobs"])
    body = _retiled(header["blobs"], raw[10 + n:])
    head = json.dumps(header).encode("utf-8")
    victim = tmp_path / "victim.eebnn"
    victim.write_bytes(raw[:6] + len(head).to_bytes(4, "little") + head + body + tail)
    with pytest.raises(ModelFormatError, match=message) as info:
        load_model(victim)
    assert str(victim) in str(info.value)


@pytest.mark.parametrize("shift", [8, -4], ids=["gap", "overlap"])
def test_blobs_must_tile_the_blob_section(saved, tmp_path, shift):
    """A blob that starts after the previous one ends, or before, is a format error naming it.

    The gap inserts `shift` zero bytes before the last blob; the overlap
    moves the one before it back into the blob it follows. Either way each
    checksum still holds.
    """
    path, _ = saved
    raw = path.read_bytes()
    n = int.from_bytes(raw[6:10], "little")
    header = json.loads(raw[10:10 + n])
    body = raw[10 + n:]
    entry = header["blobs"][-1] if shift > 0 else header["blobs"][-2]
    name, at = entry["name"], entry["offset"]
    if shift > 0:
        body = body[:at] + bytes(shift) + body[at:]
    entry["offset"] = at + shift
    entry["crc32"] = zlib.crc32(body[at + shift:at + shift + entry["size"]])
    head = json.dumps(header).encode("utf-8")
    victim = tmp_path / "victim.eebnn"
    victim.write_bytes(raw[:6] + len(head).to_bytes(4, "little") + head + body)
    with pytest.raises(ModelFormatError, match=rf"blob {name} starts at offset {at + shift}, "
                                               rf"the blobs before it end at {at}$") as info:
        load_model(victim)
    assert str(victim) in str(info.value)


def test_no_temp_file_left_behind(trained_model, tmp_path):
    target = tmp_path / "clean.eebnn"
    save_model(trained_model, target)
    assert target.exists()
    assert list(tmp_path.iterdir()) == [target]


def _json_paths(node, prefix=()):
    """Every path (tuple of keys and indices) into a JSON value, root first."""
    yield prefix
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _json_paths(child, prefix + (key,))


JSON_LEAVES = st.one_of(st.none(), st.booleans(), st.integers(-3, 40), st.text(max_size=4),
                        st.lists(st.integers(-3, 40), max_size=4), st.just({}))


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_mutated_file_loads_or_raises_format_error(saved, tmp_path_factory, data):
    path, _ = saved
    raw = path.read_bytes()
    n = int.from_bytes(raw[6:10], "little")
    header = json.loads(raw[10:10 + n])
    if data.draw(st.booleans(), label="mutate header"):
        where = data.draw(st.sampled_from(list(_json_paths(header))), label="path")
        if not where:
            header = data.draw(JSON_LEAVES, label="new header")
        else:
            node = header
            for key in where[:-1]:
                node = node[key]
            if isinstance(node, dict) and data.draw(st.booleans(), label="delete"):
                del node[where[-1]]
            else:
                node[where[-1]] = data.draw(JSON_LEAVES, label="new value")
        head = json.dumps(header).encode("utf-8")
        raw = raw[:6] + len(head).to_bytes(4, "little") + head + raw[10 + n:]
    else:
        at = data.draw(st.integers(0, len(raw) - 1), label="byte")
        raw = raw[:at] + bytes([raw[at] ^ data.draw(st.integers(1, 255), label="xor")]) + raw[at + 1:]
    victim = tmp_path_factory.getbasetemp() / "mutated.eebnn"
    victim.write_bytes(raw)
    try:
        load_model(victim)
    except ModelFormatError as e:
        assert str(victim) in str(e)
