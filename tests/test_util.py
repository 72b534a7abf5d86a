import re

import pytest

from recipe_nutrients.util import (atomic_write, checked, dump_jsonl, load_jsonl, read_json,
                                   replace_together)

# one bad json text per way decoding fails, and the words the error gives
DECODE_FAILURES = {
    "not_utf8": (b'{"id": "\xff"}', "'utf-8' codec can't decode byte 0xff"),
    "deep": (b"[" * 100_000 + b"]" * 100_000, "maximum recursion depth exceeded"),
    "bom": (b'\xef\xbb\xbf{"id": "a"}', "Unexpected UTF-8 BOM"),
    "truncated": (b'{"id": "a", "fat": 1.', "Expecting"),
}


@pytest.mark.parametrize("case", DECODE_FAILURES)
def test_read_json_names_file_on_decode_failure(tmp_path, case):
    data, message = DECODE_FAILURES[case]
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: bad thing: ')}.*{message}"):
        read_json(path, "bad thing")


@pytest.mark.parametrize("case", DECODE_FAILURES)
def test_load_jsonl_names_file_and_line_on_decode_failure(tmp_path, case):
    data, message = DECODE_FAILURES[case]
    path = tmp_path / "bad.jsonl"
    # a byte-order mark is read as one only at the start of the file
    path.write_bytes(data + b'\n{"id": "b"}\n' if case == "bom"
                     else b'{"id": "a"}\n' + data + b"\n")
    line = 1 if case == "bom" else 2
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: line {line}: ')}.*{message}"):
        load_jsonl(path)


def test_read_json_keeps_the_bytes_it_read(tmp_path):
    path = tmp_path / "ok.json"
    path.write_bytes(b'{"id":  "a"}\r\n')
    assert read_json(path, "thing") == ({"id": "a"}, b'{"id":  "a"}\r\n')


def test_huge_integer_in_checked_names_file(tmp_path):
    path = tmp_path / "rules.json"
    path.write_text('{"margin": ' + "9" * 400 + "}")
    raw, _ = read_json(path, "bad rules")
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: bad rules: ')}int too large"):
        with checked(path, "bad rules"):
            float(raw["margin"])


@pytest.mark.parametrize("error", [KeyError("fat"), TypeError("t"), AttributeError("a"),
                                   OverflowError("o"), ZeroDivisionError("z"),
                                   RecursionError("r")])
def test_checked_names_file_for_every_input_error(error):
    with pytest.raises(ValueError, match=f"^data.json: record 3: {re.escape(str(error))}$"):
        with checked("data.json", "record 3"):
            raise error


def test_checked_lets_other_errors_through():
    with pytest.raises(OSError):
        with checked("data.json", "record 3"):
            raise OSError("disk")



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
