import pytest

from recipe_nutrients.util import dump_jsonl, load_jsonl


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
