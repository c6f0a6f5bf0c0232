"""Tests for the on-disk snapshot format (header, checksum, atomicity)."""

from __future__ import annotations

import json
import os

import pytest

from repro.checkpoint import (
    FORMAT_NAME,
    FORMAT_VERSION,
    read_snapshot,
    write_snapshot,
)
from repro.errors import CheckpointError


@pytest.fixture
def path(tmp_path):
    return str(tmp_path / "snap.json")


class TestRoundTrip:
    def test_payload_round_trips(self, path):
        payload = {"kind": "experiment", "steps": 42, "nested": {"a": [1, 2.5, None]}}
        write_snapshot(path, payload)
        assert read_snapshot(path) == payload

    def test_digest_matches_header(self, path):
        digest = write_snapshot(path, {"x": 1})
        with open(path, encoding="utf-8") as fh:
            header = json.loads(fh.readline())
        assert header == {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "sha256": digest,
        }

    def test_identical_payload_identical_bytes(self, path, tmp_path):
        other = str(tmp_path / "other.json")
        # Key order must not matter: serialisation is canonical.
        write_snapshot(path, {"a": 1, "b": 2})
        write_snapshot(other, {"b": 2, "a": 1})
        assert open(path, "rb").read() == open(other, "rb").read()

    def test_overwrite_leaves_no_tmp_file(self, path, tmp_path):
        write_snapshot(path, {"x": 1})
        write_snapshot(path, {"x": 2})
        assert read_snapshot(path) == {"x": 2}
        assert os.listdir(tmp_path) == [os.path.basename(path)]


class TestRejection:
    def test_missing_file(self, path):
        with pytest.raises(CheckpointError, match="cannot read"):
            read_snapshot(path)

    def test_truncated_file(self, path):
        write_snapshot(path, {"x": 1})
        with open(path, encoding="utf-8") as fh:
            header = fh.readline()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(header)
        with pytest.raises(CheckpointError, match="truncated"):
            read_snapshot(path)

    def test_corrupted_payload_fails_checksum(self, path):
        write_snapshot(path, {"x": 1})
        lines = open(path, encoding="utf-8").read().splitlines()
        lines[1] = lines[1].replace("1", "2")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match="checksum"):
            read_snapshot(path)

    def test_wrong_format_name(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"format": "something-else", "version": 1}\n{}\n')
        with pytest.raises(CheckpointError, match="not a"):
            read_snapshot(path)

    def test_wrong_version(self, path):
        write_snapshot(path, {"x": 1})
        lines = open(path, encoding="utf-8").read().splitlines()
        header = json.loads(lines[0])
        header["version"] = FORMAT_VERSION + 1
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n" + lines[1] + "\n")
        with pytest.raises(CheckpointError, match="version"):
            read_snapshot(path)

    def test_malformed_header(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("not json\n{}\n")
        with pytest.raises(CheckpointError, match="malformed header"):
            read_snapshot(path)

    def test_non_object_payload(self, path):
        import hashlib

        body = "[1,2,3]"
        header = json.dumps(
            {
                "format": FORMAT_NAME,
                "version": FORMAT_VERSION,
                "sha256": hashlib.sha256(body.encode()).hexdigest(),
            }
        )
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(header + "\n" + body + "\n")
        with pytest.raises(CheckpointError, match="not an object"):
            read_snapshot(path)

    def test_unserialisable_payload(self, path):
        with pytest.raises(CheckpointError, match="not JSON-serialisable"):
            write_snapshot(path, {"x": object()})


class TestRetiredGAKernel:
    """Snapshots from builds with a selectable GA kernel are refused."""

    @staticmethod
    def pre_single_kernel_config(**ga_switches):
        from repro.checkpoint.snapshot import encode_config
        from repro.experiments.config import table2_experiments

        data = encode_config(table2_experiments(request_count=10)[2])
        data["ga_config"] = dict(data["ga_config"], **ga_switches)
        return data

    @pytest.mark.parametrize(
        "switches, kernel",
        [
            ({"batched": True, "kernel": None, "eval_reuse": True}, "batched"),
            ({"batched": False, "kernel": None, "eval_reuse": False}, "reference"),
            ({"batched": True, "kernel": "vectorized", "eval_reuse": True},
             "vectorized"),
        ],
    )
    def test_config_refused_naming_the_kernel(self, switches, kernel):
        from repro.checkpoint.snapshot import decode_config

        data = self.pre_single_kernel_config(**switches)
        with pytest.raises(CheckpointError, match=f"retired '{kernel}' GA kernel"):
            decode_config(data)

    def test_current_config_still_decodes(self):
        from repro.checkpoint.snapshot import decode_config, encode_config

        data = self.pre_single_kernel_config()
        assert encode_config(decode_config(data)) == data
