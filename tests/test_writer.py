"""The one writer of semkit's output files, :func:`semkit.resources.write_text`: the bytes
``Path.write_text`` would write, put in place over an existing file instead of after
truncating it to zero."""

import errno
import json
import os
import stat

import pytest

from semkit.corpus import load_dataset, save_dataset
from semkit.experiment import run_experiment
from semkit.resources import data_path, dataset_path, write_text

TEXT = "héllo, wörld\r\nline two\n" * 40


def test_bytes_and_mode_are_those_of_path_write_text(tmp_path):
    ours, theirs = tmp_path / "ours", tmp_path / "theirs"
    write_text(ours, TEXT)
    theirs.write_text(TEXT, encoding="utf-8")
    assert ours.read_bytes() == theirs.read_bytes() == TEXT.encode("utf-8")
    assert stat.S_IMODE(ours.stat().st_mode) == stat.S_IMODE(theirs.stat().st_mode)


@pytest.mark.parametrize("old", ["x" * 5000, "", TEXT[:7], "y" * len(TEXT.encode("utf-8"))],
                         ids=["longer", "empty", "shorter", "same-length"])
def test_an_existing_file_ends_up_holding_exactly_the_new_bytes(tmp_path, old):
    path = tmp_path / "out.txt"
    path.write_text(old, encoding="utf-8")
    inode = path.stat().st_ino
    write_text(path, TEXT)
    assert path.read_bytes() == TEXT.encode("utf-8")
    assert path.stat().st_ino == inode  # rewritten in place, not replaced
    write_text(path, "")
    assert path.read_bytes() == b""


def test_a_failed_write_leaves_no_old_byte_and_propagates(tmp_path, monkeypatch):
    path = tmp_path / "out.txt"
    path.write_text("OLD" * 4000, encoding="utf-8")
    real_write, calls = os.write, []

    def failing_write(fd, data):
        if os.fstat(fd).st_ino != path.stat().st_ino:
            return real_write(fd, data)
        calls.append(len(data))
        if len(calls) > 1:
            raise OSError(errno.ENOSPC, "No space left on device")
        return real_write(fd, bytes(data[:10]))  # a short first write

    monkeypatch.setattr(os, "write", failing_write)
    with pytest.raises(OSError, match="No space left"):
        write_text(path, TEXT)
    monkeypatch.undo()
    assert calls == [len(TEXT.encode("utf-8")), len(TEXT.encode("utf-8")) - 10]
    assert path.read_bytes() == TEXT.encode("utf-8")[:10]


def test_text_that_does_not_encode_raises_before_the_file_is_touched(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old", encoding="utf-8")
    with pytest.raises(UnicodeEncodeError):
        write_text(path, "\ud800")
    assert path.read_text(encoding="utf-8") == "old"


def test_a_device_is_written_to_and_not_cut():
    write_text(os.devnull, TEXT)


def test_save_dataset_over_a_longer_file_round_trips(tmp_path):
    dataset = load_dataset(dataset_path("geoquery"))
    path = tmp_path / "geoquery.jsonl"
    path.write_bytes(dataset_path("geoquery").read_bytes() * 2)
    save_dataset(dataset, path)
    assert path.read_bytes() == dataset_path("geoquery").read_bytes()


def test_run_experiment_writes_every_output_in_place(tmp_path, monkeypatch):
    """Every output file is opened through ``os.open`` without ``O_TRUNC``, so a write that
    goes back to ``Path.write_text`` or ``open(..., "w")`` fails here; a rerun over files
    padded with junk gives the bytes of a run into a fresh directory."""
    config_path = data_path("experiment_replay.json")
    config = json.loads(config_path.read_text(encoding="utf-8"))
    fresh, rerun = tmp_path / "fresh", tmp_path / "rerun"
    run_experiment(config, config_path.parent, fresh)
    rerun.mkdir()
    for path in fresh.iterdir():
        (rerun / path.name).write_bytes(path.read_bytes() + b"junk" * 1000)
    real_open, opened = os.open, {}

    def spy(path, flags, *args, **kwargs):
        opened[os.fspath(path)] = flags
        return real_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", spy)
    run_experiment(config, config_path.parent, rerun)
    monkeypatch.undo()
    written = {path: flags for path, flags in opened.items() if flags & os.O_WRONLY}
    names = sorted(path.name for path in fresh.iterdir())
    assert len(names) == 2 * len(config["seeds"]) + 2
    assert sorted(os.path.basename(path) for path in written) == names
    assert not [path for path, flags in written.items() if flags & os.O_TRUNC]
    for name in names:
        assert (rerun / name).read_bytes() == (fresh / name).read_bytes(), name
