import math
import struct

import numpy as np
import pytest

from jamloc.nn import CheckpointError, Tensor, load_checkpoint, save_checkpoint


def test_round_trip_with_metadata(tmp_path):
    rng = np.random.default_rng(5)
    params = [Tensor(rng.normal(size=(3, 4)).astype(np.float32), requires_grad=True),
              Tensor(rng.normal(size=(7,)).astype(np.float32), requires_grad=True)]
    meta = {"model": "MCAFF", "norm": {"iq_mean": [0.0] * 8}}
    path = tmp_path / "w.gjw"
    save_checkpoint(path, params, meta)
    arrays, loaded_meta = load_checkpoint(path)
    assert loaded_meta == meta
    for p, a in zip(params, arrays):
        np.testing.assert_array_equal(p.data, a)


def test_round_trip_without_metadata(tmp_path):
    path = tmp_path / "w.gjw"
    save_checkpoint(path, [Tensor(np.ones((2, 2), dtype=np.float32))])
    arrays, meta = load_checkpoint(path)
    assert meta is None
    assert arrays[0].shape == (2, 2)


def test_bad_magic(tmp_path):
    path = tmp_path / "junk.gjw"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_truncation_detected(tmp_path):
    path = tmp_path / "w.gjw"
    save_checkpoint(path, [Tensor(np.ones(10, dtype=np.float32))])
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_float64_params_stored_as_f32(tmp_path):
    path = tmp_path / "w.gjw"
    save_checkpoint(path, [Tensor(np.array([1.0, 2.0]))])
    arrays, _ = load_checkpoint(path)
    assert arrays[0].dtype == np.float32


@pytest.mark.parametrize("kept", [1, 2, 3])
def test_truncated_metadata_length_detected(tmp_path, kept):
    path = tmp_path / "w.gjw"
    save_checkpoint(path, [Tensor(np.ones(3, dtype=np.float32))])
    n = len(path.read_bytes())
    save_checkpoint(path, [Tensor(np.ones(3, dtype=np.float32))], {"kind": "MCAFF"})
    path.write_bytes(path.read_bytes()[:n + kept])
    with pytest.raises(CheckpointError, match="metadata length"):
        load_checkpoint(path)


def test_bytes_after_the_metadata_block_detected(tmp_path):
    # a FUSION checkpoint with 32 junk bytes appended loaded without error
    path = tmp_path / "w.gjw"
    save_checkpoint(path, [Tensor(np.ones(3, dtype=np.float32))], {"kind": "FUSION"})
    path.write_bytes(path.read_bytes() + b"\xab" * 32)
    with pytest.raises(CheckpointError, match=r"has 32 trailing bytes after the metadata block$"):
        load_checkpoint(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e39], ids=["nan", "inf", "past-float32"])
def test_non_finite_weights_are_refused_before_the_file_is_opened(tmp_path, bad):
    # a diverged model saved over the last good checkpoint wiped it, and
    # wrote a file that load_model refuses; 1e39 is inf in float32
    path = tmp_path / "w.gjw"
    save_checkpoint(path, [Tensor(np.ones(3, dtype=np.float32))], {"kind": "FUSION"})
    good = path.read_bytes()
    params = [Tensor(np.ones((2, 2))), Tensor(np.array([1.0, bad]))]
    with pytest.raises(ValueError, match=r"^tensor 1 of shape \(2,\) holds non-finite weights$"):
        save_checkpoint(path, params, {"kind": "FUSION"})
    assert path.read_bytes() == good


@pytest.mark.parametrize("blob", [b"\xff\xfe{}", b"{not json", b"[1, 2]"],
                         ids=["not-utf8", "not-json", "not-an-object"])
def test_bad_metadata_block_detected(tmp_path, blob):
    path = tmp_path / "w.gjw"
    save_checkpoint(path, [Tensor(np.ones(3, dtype=np.float32))])
    path.write_bytes(path.read_bytes() + struct.pack("<I", len(blob)) + blob)
    with pytest.raises(CheckpointError, match="metadata"):
        load_checkpoint(path)


@pytest.mark.parametrize("dims", [(2**32 - 1, 2**32 - 1), (65536,) * 4],
                         ids=["int64-wraps-negative", "int64-wraps-to-zero"])
def test_dims_past_the_end_of_the_file_detected(tmp_path, dims):
    # numpy's int64 product of these dims wraps, to a negative read length
    # or to 0, and the loader raised a bare ValueError
    path = tmp_path / "w.gjw"
    header = b"GJW1" + struct.pack("<II", 1, len(dims)) + struct.pack(f"<{len(dims)}I", *dims)
    path.write_bytes(header + b"\x00" * 64)
    with pytest.raises(CheckpointError, match=r"^truncated checkpoint while reading tensor 0 "
                                              rf"data: {4 * math.prod(dims)} bytes would run past"):
        load_checkpoint(path)


def test_rank_above_numpys_limit_detected(tmp_path):
    # rank 65 was read, then failed in reshape with a bare ValueError
    path = tmp_path / "w.gjw"
    for rank in (64, 65):
        tensor = struct.pack(f"<I{rank}I", rank, *(1,) * rank) + b"\x00" * 4
        path.write_bytes(b"GJW1" + struct.pack("<I", 2) + struct.pack("<II", 1, 1) + b"\x00" * 4
                         + tensor)
        if rank == 64:
            assert load_checkpoint(path)[0][1].shape == (1,) * 64
    with pytest.raises(CheckpointError, match=r"^tensor 1 has rank 65; numpy supports at most 64$"):
        load_checkpoint(path)
