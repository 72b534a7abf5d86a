import pytest

from recipe_nutrients.util import atomic_write, dump_jsonl, load_jsonl, replace_together


def test_interrupted_dump_leaves_earlier_file_intact(tmp_path):
    path = tmp_path / "rows.jsonl"
    dump_jsonl(path, [{"id": "a"}, {"id": "b"}])
    before = path.read_bytes()

    def rows():
        yield {"id": "c"}
        raise RuntimeError("interrupted")

    with pytest.raises(RuntimeError, match="interrupted"):
        dump_jsonl(path, rows())
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["rows.jsonl"]

    assert dump_jsonl(path, [{"id": "c"}]) == 1
    assert load_jsonl(path) == [{"id": "c"}]
    assert [p.name for p in tmp_path.iterdir()] == ["rows.jsonl"]


def test_replace_together_renames_nothing_until_the_block_completes(tmp_path):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    first.write_text("old first")
    second.write_text("old second")
    with replace_together():
        with atomic_write(first) as fh:
            fh.write("new first")
        with atomic_write(second) as fh:
            fh.write("new second")
        assert (first.read_text(), second.read_text()) == ("old first", "old second")
    assert (first.read_text(), second.read_text()) == ("new first", "new second")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["first.json", "second.json"]


def test_replace_together_keeps_every_file_when_a_write_fails(tmp_path):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    first.write_text("old first")
    second.write_text("old second")
    with pytest.raises(OSError, match="No space"):
        with replace_together():
            with atomic_write(first) as fh:
                fh.write("new first")
            with atomic_write(second) as fh:
                fh.write("{")
                raise OSError(28, "No space left on device")
    assert (first.read_text(), second.read_text()) == ("old first", "old second")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["first.json", "second.json"]
    # a later write is immediate again
    with atomic_write(first) as fh:
        fh.write("newer first")
    assert first.read_text() == "newer first"
