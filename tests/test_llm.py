import json
import logging
import os
import socket
import threading

import pytest
from hypothesis import example, given, strategies as st

from conftest import Scripted, completion_body

from recipe_nutrients.dataset import NutrientPrediction, render_answer
from recipe_nutrients.llm import (
    ChatRequest,
    EndpointConfig,
    EndpointError,
    FewShotBank,
    ParseError,
    TransportError,
    TranscriptCache,
    complete,
    complete_many,
    merge_predictions,
    parse_llm_nutrients,
    parse_refine_json,
    parse_replies,
    render_direct_prompt,
    render_refine_prompt,
    request_hash,
)

ANSWER1 = "Nutrient values per 100 g: fat - 8.55, protein - 12.31, saturates - 1.72, sugars - 14.17"
ANSWER2 = "Nutrient values per 100 g: fat - 14.20, protein - 3.10, saturates - 2.15, sugars - 0.50"


# text put before a "key - value" pair that must not be read as one of the keys
ADVERSARIAL_PREFIXES = (
    "",
    "and finally ",
    "saturated fat - 99.5, ",
    "Saturated FAT - 1e3; ",
    "trans fat - 7, ",
    "monounsaturated fat-3 ",
    "added sugars - 12.5 ",
    "low-fat - 8, ",
    "nonfat - 4, ",
    "fats - 6, ",
    "of which ",
)


# replies that crashed the refinement parser instead of failing to parse
OVERFLOWING_REPLY = '{"protein_g": 1, "fat_g": ' + "9" * 400 + ', "sugars_g": 1, "saturates_g": 1}'
DEEP_REPLY = '{"a":' * 2000 + "1" + "}" * 2000

JSON_FRAGMENTS = ("{", "}", "[", "]", ":", ",", " ", '"fat_g"', '"protein_g"', '"sugars_g"',
                  '"saturates_g"', '"a"', "1", "-2.5", "1e999", "9" * 400, "true", "null",
                  "NaN", '"x"', "prose ")

refine_values = st.one_of(st.integers(), st.integers(min_value=10 ** 300, max_value=10 ** 400),
                          st.floats(), st.booleans(), st.none(), st.text(max_size=5))
refine_objects = st.dictionaries(
    st.sampled_from(["protein_g", "fat_g", "sugars_g", "saturates_g", "a"]),
    refine_values).map(json.dumps)
refine_replies = st.one_of(
    st.text(),
    st.lists(st.sampled_from(JSON_FRAGMENTS), max_size=40).map("".join),
    st.tuples(st.text(max_size=10), refine_objects, st.text(max_size=10)).map("".join),
)


def pred(fat=0, protein=0, saturates=0, sugars=0):
    return NutrientPrediction(fat=fat, protein=protein, saturates=saturates, sugars=sugars)


def endpoint(server, **kw):
    base = dict(base_url=server.base_url, model_name="stub-model",
                timeout=5.0, max_retries=2, backoff_base=0.01)
    base.update(kw)
    return EndpointConfig(**base)


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestRenderDirectPrompt:
    def test_default_bank_first_assistant_turn(self):
        req = render_direct_prompt("1 cup oats", FewShotBank.default())
        assert req.messages[1] == {"role": "assistant", "content": ANSWER1}
        assert req.messages[3] == {"role": "assistant", "content": ANSWER2}

    def test_zero_shot(self):
        bank = FewShotBank(exemplars=())
        req = render_direct_prompt("1 cup oats", bank)
        assert len(req.messages) == 1
        assert req.messages[0]["role"] == "user"

    def test_final_turn_wraps_text(self):
        req = render_direct_prompt("X", FewShotBank.default())
        assert req.messages[-1]["content"] == "[INST] X [/INST]"

    def test_system_prompt_carries_conversion_anchors(self):
        req = render_direct_prompt("X", FewShotBank.default())
        assert "1 cup water ≈ 236.6g" in req.system
        assert "1 tablespoon butter ≈ 14.2g" in req.system
        assert "Nutrient values per 100 g: fat - [value], protein - [value], " \
               "saturates - [value], sugars - [value]" in req.system

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            render_direct_prompt("  ", FewShotBank.default())

    def test_deterministic(self):
        a = render_direct_prompt("1 cup oats", FewShotBank.default())
        b = render_direct_prompt("1 cup oats", FewShotBank.default())
        assert a == b

    def test_every_exemplar_is_a_shot(self, tmp_path):
        path = tmp_path / "shots.jsonl"
        path.write_text(json.dumps({"ingredient_text": "1 cup rye", "fat": 1.0, "protein": 2.0,
                                    "saturates": 0.5, "sugars": 0.0}) + "\n")
        req = render_direct_prompt("X", FewShotBank.from_file(path))
        assert len(req.messages) == 3
        assert req.messages[0]["content"] == "[INST] 1 cup rye [/INST]"


class TestRenderRefinePrompt:
    def test_field_order_and_values(self):
        req = render_refine_prompt("1 cup oats", pred(fat=1, protein=2, saturates=3, sugars=4))
        body = req.messages[0]["content"]
        assert "Protein: 2.00" in body and "Fat: 1.00" in body
        assert "Sugar: 4.00" in body and "Saturates: 3.00" in body
        assert body.index("Protein:") < body.index("Fat:") < body.index("Sugar:") \
            < body.index("Saturates:")

    def test_names_all_json_keys(self):
        body = render_refine_prompt("X", pred()).messages[0]["content"]
        for key in ("protein_g", "fat_g", "sugars_g", "saturates_g"):
            assert key in body

    def test_half_up_rounding(self):
        body = render_refine_prompt("X", pred(fat=0.005)).messages[0]["content"]
        assert "Fat: 0.01" in body

    def test_system_is_nutrition_expert(self):
        assert render_refine_prompt("X", pred()).system == "You are a nutrition expert."


class TestChatRequest:
    def test_rejects_final_assistant_message(self):
        with pytest.raises(ValueError, match="user"):
            ChatRequest(system="s", messages=({"role": "assistant", "content": "x"},))

    def test_rejects_non_alternating(self):
        with pytest.raises(ValueError, match="alternate"):
            ChatRequest(system="s", messages=(
                {"role": "user", "content": "a"}, {"role": "user", "content": "b"}))

    def test_payload_shape(self):
        req = ChatRequest(system="s", messages=({"role": "user", "content": "u"},))
        payload = req.to_payload("m")
        assert payload["model"] == "m"
        assert payload["messages"][0] == {"role": "system", "content": "s"}
        assert payload["messages"][-1] == {"role": "user", "content": "u"}


class TestComplete:
    def test_echo(self, endpoint_stub):
        endpoint_stub.reply_with("OK")
        req = render_direct_prompt("1 cup oats", FewShotBank.default())
        assert complete(req, endpoint(endpoint_stub)) == "OK"
        sent = endpoint_stub.requests[0]["payload"]
        assert sent["model"] == "stub-model"
        assert sent["messages"][0]["role"] == "system"

    def test_retry_on_429_then_success(self, endpoint_stub):
        endpoint_stub.script(
            Scripted(429, b"slow down"),
            Scripted(429, b"slow down"),
            Scripted(200, completion_body("recovered")),
        )
        req = ChatRequest(system="s", messages=({"role": "user", "content": "u"},))
        assert complete(req, endpoint(endpoint_stub, max_retries=2)) == "recovered"
        assert len(endpoint_stub.requests) == 3

    def test_persistent_500_exhausts_retries(self, endpoint_stub):
        endpoint_stub.default = Scripted(500, b"boom")
        req = ChatRequest(system="s", messages=({"role": "user", "content": "u"},))
        with pytest.raises(TransportError, match="2 attempts"):
            complete(req, endpoint(endpoint_stub, max_retries=1))
        assert len(endpoint_stub.requests) == 2

    def test_terminal_4xx_fails_immediately(self, endpoint_stub):
        endpoint_stub.default = Scripted(404, b"nope")
        req = ChatRequest(system="s", messages=({"role": "user", "content": "u"},))
        with pytest.raises(EndpointError, match="404"):
            complete(req, endpoint(endpoint_stub))
        assert len(endpoint_stub.requests) == 1

    def test_malformed_body_is_endpoint_error(self, endpoint_stub):
        endpoint_stub.default = Scripted(200, b'{"unexpected": true}')
        req = ChatRequest(system="s", messages=({"role": "user", "content": "u"},))
        with pytest.raises(EndpointError, match="malformed"):
            complete(req, endpoint(endpoint_stub))

    def test_deeply_nested_body_is_endpoint_error(self, endpoint_stub):
        endpoint_stub.default = Scripted(200, b"[" * 100_000 + b"]" * 100_000)
        req = ChatRequest(system="s", messages=({"role": "user", "content": "u"},))
        with pytest.raises(EndpointError, match="malformed completion body .*recursion"):
            complete(req, endpoint(endpoint_stub))

    def test_body_cut_short_retries(self, endpoint_stub):
        # the body ends 94 bytes before its Content-Length, then the connection closes
        endpoint_stub.script(Scripted(200, b'{"cho', content_length=100),
                             Scripted(200, completion_body("recovered")))
        req = ChatRequest(system="s", messages=({"role": "user", "content": "u"},))
        assert complete(req, endpoint(endpoint_stub, max_retries=1)) == "recovered"
        assert len(endpoint_stub.requests) == 2

    def test_body_cut_short_is_one_warning_and_no_reply(self, endpoint_stub, caplog):
        endpoint_stub.default = Scripted(200, b'{"cho', content_length=100)
        req = ChatRequest(system="s", messages=({"role": "user", "content": "u"},))
        with pytest.raises(TransportError, match="ChunkedEncodingError"):
            complete(req, endpoint(endpoint_stub, max_retries=1))
        with caplog.at_level(logging.WARNING, logger="recipe_nutrients.llm"):
            replies = complete_many([("s1", req)], endpoint(endpoint_stub, max_retries=1))
        assert replies == {"s1": None}
        assert len(endpoint_stub.requests) == 4
        assert [r.getMessage().split(":")[:2] for r in caplog.records] == [["s1", " request failed"]]

    def test_body_not_decodable_is_one_warning_and_no_reply(self, endpoint_stub, caplog):
        # the reply claims gzip over a body that is not gzip: requests raises
        # ContentDecodingError, which is not retried
        endpoint_stub.default = Scripted(200, completion_body("OK"), content_encoding="gzip")
        req = ChatRequest(system="s", messages=({"role": "user", "content": "u"},))
        with pytest.raises(EndpointError, match="ContentDecodingError"):
            complete(req, endpoint(endpoint_stub, max_retries=1))
        with caplog.at_level(logging.WARNING, logger="recipe_nutrients.llm"):
            replies = complete_many([("s1", req)], endpoint(endpoint_stub, max_retries=1))
        assert replies == {"s1": None}
        assert len(endpoint_stub.requests) == 2
        assert [r.getMessage().split(":")[:2] for r in caplog.records] == [["s1", " request failed"]]

    def test_api_key_header(self, endpoint_stub, monkeypatch):
        monkeypatch.setenv("STUB_KEY", "sekret")
        endpoint_stub.reply_with("OK")
        req = ChatRequest(system="s", messages=({"role": "user", "content": "u"},))
        complete(req, endpoint(endpoint_stub, api_key_env="STUB_KEY"))
        assert endpoint_stub.requests[0]["authorization"] == "Bearer sekret"

    def test_missing_api_key_env(self, endpoint_stub, monkeypatch):
        monkeypatch.delenv("NO_SUCH_KEY", raising=False)
        req = ChatRequest(system="s", messages=({"role": "user", "content": "u"},))
        with pytest.raises(ValueError, match="NO_SUCH_KEY"):
            complete(req, endpoint(endpoint_stub, api_key_env="NO_SUCH_KEY"))


class TestParseLlmNutrients:
    def test_answer1(self):
        assert parse_llm_nutrients(ANSWER1) == pred(8.55, 12.31, 1.72, 14.17)

    def test_answer2(self):
        assert parse_llm_nutrients(ANSWER2) == pred(14.20, 3.10, 2.15, 0.50)

    def test_missing_keys_named(self):
        with pytest.raises(ParseError, match="protein"):
            parse_llm_nutrients("I think fat - 1.0")

    def test_prose_and_order_tolerated(self):
        text = "Sure! sugars - 1.5, then saturates - 0.2; protein - 3 and finally FAT - 9.0. Enjoy!"
        assert parse_llm_nutrients(text) == pred(fat=9.0, protein=3, saturates=0.2, sugars=1.5)

    def test_round_trips_rendered_predictions(self):
        import random
        rng = random.Random(5)
        for _ in range(200):
            original = pred(*(round(rng.uniform(0, 120), rng.randint(0, 3)) for _ in range(4)))
            recovered = parse_llm_nutrients(render_answer(original))
            for key in ("fat", "protein", "saturates", "sugars"):
                assert abs(getattr(recovered, key) - getattr(original, key)) <= 0.005 + 1e-9

    def test_saturated_fat_is_not_fat(self):
        text = "saturated fat - 2.0, fat - 10.0, protein - 3, saturates - 1, sugars - 4"
        assert parse_llm_nutrients(text) == pred(fat=10.0, protein=3, saturates=1, sugars=4)

    def test_hyphenated_compound_is_not_a_key(self):
        with pytest.raises(ParseError, match="fat"):
            parse_llm_nutrients("low-fat - 1, protein - 3, saturates - 1, sugars - 4")

    def test_exponent_read_in_full(self):
        text = "fat - 1e1, protein - 2.5E-1, saturates - 1e+0, sugars - 4"
        assert parse_llm_nutrients(text) == pred(fat=10.0, protein=0.25, saturates=1, sugars=4)

    @pytest.mark.parametrize("number", ["1e", "1E+", "1.e5", "1.2.3", "1e999"])
    def test_number_never_read_cut_short(self, number):
        with pytest.raises(ParseError, match="fat"):
            parse_llm_nutrients(f"fat - {number}, protein - 3, saturates - 1, sugars - 4")

    def test_conflicting_repeat_rejected(self):
        with pytest.raises(ParseError, match="twice"):
            parse_llm_nutrients("fat - 1, protein - 3, saturates - 1, sugars - 4. fat - 2")

    @given(values=st.lists(st.floats(0, 1000, allow_nan=False), min_size=4, max_size=4),
           order=st.permutations(range(4)),
           prefixes=st.lists(st.sampled_from(ADVERSARIAL_PREFIXES), min_size=5, max_size=5))
    def test_round_trip_with_shuffled_keys_and_adversarial_prefixes(self, values, order,
                                                                    prefixes):
        original = pred(*values)
        head, _, body = render_answer(original).partition(": ")
        parts = body.split(", ")
        text = prefixes[4] + head + ": " + ", ".join(prefixes[i] + parts[i] for i in order)
        recovered = parse_llm_nutrients(text)
        for key in ("fat", "protein", "saturates", "sugars"):
            assert abs(getattr(recovered, key) - getattr(original, key)) <= 0.005 + 1e-9


class TestParseRefineJson:
    def test_plain_object(self):
        text = '{"protein_g": 2.0, "fat_g": 1.0, "sugars_g": 4.0, "saturates_g": 0.5}'
        assert parse_refine_json(text) == pred(fat=1.0, protein=2.0, saturates=0.5, sugars=4.0)

    def test_fenced_block(self):
        text = 'Here you go:\n```json\n{"protein_g": 2, "fat_g": 1, "sugars_g": 4, "saturates_g": 0.5}\n```'
        assert parse_refine_json(text) == pred(fat=1.0, protein=2.0, saturates=0.5, sugars=4.0)

    def test_negative_clamped(self):
        text = '{"protein_g": -1, "fat_g": 1, "sugars_g": 4, "saturates_g": 0.5}'
        assert parse_refine_json(text).protein == 0.0

    def test_missing_key(self):
        with pytest.raises(ParseError, match="saturates_g"):
            parse_refine_json('{"protein_g": 1, "fat_g": 1, "sugars_g": 1}')

    def test_no_object(self):
        with pytest.raises(ParseError, match="no json"):
            parse_refine_json("nothing here")

    def test_non_numeric_value(self):
        with pytest.raises(ParseError, match="fat_g"):
            parse_refine_json('{"protein_g": 1, "fat_g": "lots", "sugars_g": 1, "saturates_g": 1}')

    def test_prose_before_object(self):
        text = 'The revised values {not json} are: {"protein_g": 1, "fat_g": 2, "sugars_g": 3, "saturates_g": 4}'
        assert parse_refine_json(text) == pred(fat=2, protein=1, saturates=4, sugars=3)

    def test_integer_past_float_range(self):
        with pytest.raises(ParseError, match="fat_g"):
            parse_refine_json(OVERFLOWING_REPLY)

    def test_nesting_past_recursion_limit(self):
        with pytest.raises(ParseError, match="unreadable"):
            parse_refine_json(DEEP_REPLY)

    def test_conflicting_repeated_key(self):
        with pytest.raises(ParseError, match="fat_g"):
            parse_refine_json(
                '{"fat_g": 1, "fat_g": 50, "protein_g": 1, "sugars_g": 1, "saturates_g": 1}')

    def test_repeated_key_with_the_same_value(self):
        text = '{"fat_g": 2, "fat_g": 2.0, "protein_g": 1, "sugars_g": 3, "saturates_g": 4}'
        assert parse_refine_json(text) == pred(fat=2, protein=1, saturates=4, sugars=3)

    @given(refine_replies)
    @example(OVERFLOWING_REPLY)
    @example(DEEP_REPLY)
    def test_total(self, text):
        try:
            result = parse_refine_json(text)
        except ParseError:
            return
        assert isinstance(result, NutrientPrediction)


class TestParseReplies:
    def test_failures_left_out_and_logged_once(self, caplog):
        replies = {"ok": ANSWER1, "failed": None, "garbage": "I refuse."}
        with caplog.at_level(logging.WARNING, logger="recipe_nutrients.llm"):
            preds = parse_replies(replies, parse_llm_nutrients)
        assert preds == {"ok": parse_llm_nutrients(ANSWER1)}
        assert [r.getMessage().split(":")[0] for r in caplog.records] == ["garbage"]


def refine(text, base, ep):
    """One sample through the calls the refine command makes; a sample whose
    request or reply fails keeps its input prediction."""
    items = [("s1", render_refine_prompt(text, base))]
    refined = parse_replies(complete_many(items, ep), parse_refine_json)
    return merge_predictions({"s1": base}, refined, set(refined))["s1"]


class TestRefine:
    def test_happy_path(self, endpoint_stub):
        endpoint_stub.reply_with('{"protein_g": 9, "fat_g": 8, "sugars_g": 7, "saturates_g": 6}')
        out = refine("1 cup oats", pred(fat=1, protein=1, saturates=1, sugars=1),
                     endpoint(endpoint_stub))
        assert out == pred(fat=8, protein=9, saturates=6, sugars=7)

    def test_garbage_falls_back(self, endpoint_stub):
        endpoint_stub.reply_with("I cannot help with that.")
        base = pred(fat=1, protein=2, saturates=3, sugars=4)
        assert refine("1 cup oats", base, endpoint(endpoint_stub)) == base

    def test_unreachable_endpoint_falls_back(self):
        ep = EndpointConfig(base_url=f"http://127.0.0.1:{free_port()}/v1",
                            model_name="m", timeout=0.5, max_retries=0, backoff_base=0.01)
        base = pred(fat=1, protein=2, saturates=3, sugars=4)
        assert refine("1 cup oats", base, ep) == base

    def test_http_error_falls_back(self, endpoint_stub):
        endpoint_stub.default = Scripted(400, b"bad request")
        base = pred(fat=1, protein=2, saturates=3, sugars=4)
        assert refine("1 cup oats", base, endpoint(endpoint_stub)) == base


class TestMergePredictions:
    def test_empty_ids_is_identity(self):
        base = {"1": pred(fat=1), "2": pred(fat=2)}
        assert merge_predictions(base, {}, set()) == base

    def test_selected_entries_replaced(self):
        base = {"1": pred(fat=1), "2": pred(fat=2), "3": pred(fat=3)}
        override = {"2": pred(fat=99)}
        merged = merge_predictions(base, override, {"2"})
        assert merged["2"] == pred(fat=99)
        assert merged["1"] == base["1"] and merged["3"] == base["3"]
        assert len(merged) == 3

    def test_id_outside_base_rejected(self):
        with pytest.raises(ValueError, match="not in the base"):
            merge_predictions({"1": pred()}, {"9": pred()}, {"9"})

    def test_id_missing_from_override_rejected(self):
        with pytest.raises(ValueError, match="no override"):
            merge_predictions({"1": pred()}, {}, {"1"})

    def test_changes_exactly_the_id_set(self):
        base = {str(i): pred(fat=float(i)) for i in range(50)}
        override = {str(i): pred(fat=1000.0 + i) for i in range(0, 50, 3)}
        ids = set(override)
        merged = merge_predictions(base, override, ids)
        changed = {k for k in base if merged[k] != base[k]}
        assert changed == ids


class TestTranscriptCache:
    def test_replay_avoids_network(self, endpoint_stub, tmp_path):
        endpoint_stub.reply_with("cached answer")
        cache = TranscriptCache(tmp_path / "transcripts.jsonl")
        ep = endpoint(endpoint_stub)
        req = render_direct_prompt("1 cup oats", FewShotBank.default())

        first = complete_many([("s1", req)], ep, cache=cache)
        assert first == {"s1": "cached answer"}
        assert len(endpoint_stub.requests) == 1

        reloaded = TranscriptCache(tmp_path / "transcripts.jsonl")
        second = complete_many([("s1", req)], ep, cache=reloaded)
        assert second == {"s1": "cached answer"}
        assert len(endpoint_stub.requests) == 1  # no new traffic

    def test_torn_final_line_skipped_and_cut_before_next_record(self, tmp_path, caplog):
        path = tmp_path / "transcripts.jsonl"
        first = TranscriptCache(path)
        first.record("s1", "h1", "one")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"id": "s2", "request_hash": "h2", "resp')  # crash mid-append

        with caplog.at_level(logging.WARNING, logger="recipe_nutrients.llm"):
            reloaded = TranscriptCache(path)
        assert "torn last line" in caplog.text
        assert reloaded.lookup("s1", "h1") == "one"
        assert reloaded.lookup("s2", "h2") is None

        reloaded.record("s3", "h3", "three")
        lines = path.read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["id"] for line in lines] == ["s1", "s3"]
        third = TranscriptCache(path)
        assert third.lookup("s1", "h1") == "one" and third.lookup("s3", "h3") == "three"

    def test_unterminated_complete_final_line_kept(self, tmp_path):
        path = tmp_path / "transcripts.jsonl"
        row = {"id": "s1", "request_hash": "h1", "response": "one"}
        path.write_text(json.dumps(row), encoding="utf-8")
        cache = TranscriptCache(path)
        assert cache.lookup("s1", "h1") == "one"
        cache.record("s2", "h2", "two")
        reloaded = TranscriptCache(path)
        assert reloaded.lookup("s1", "h1") == "one" and reloaded.lookup("s2", "h2") == "two"

    def test_record_holds_id_hash_and_response_and_older_timestamps_load(self, tmp_path):
        path = tmp_path / "transcripts.jsonl"
        older = {"id": "s1", "request_hash": "h1", "response": "one", "timestamp": 1.5e9}
        path.write_text(json.dumps(older) + "\n", encoding="utf-8")
        cache = TranscriptCache(path)
        assert cache.lookup("s1", "h1") == "one"
        cache.record("s2", "h2", "two")
        assert json.loads(path.read_text(encoding="utf-8").splitlines()[1]) == {
            "id": "s2", "request_hash": "h2", "response": "two"}

    def test_corrupt_line_before_the_last_raises(self, tmp_path):
        path = tmp_path / "transcripts.jsonl"
        row = json.dumps({"id": "s1", "request_hash": "h1", "response": "one"})
        path.write_text('{"id": "s0", "requ\n' + row + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 1"):
            TranscriptCache(path)

    def test_hash_distinguishes_requests(self):
        ep = EndpointConfig(base_url="http://x/v1", model_name="m")
        a = render_direct_prompt("oats", FewShotBank.default())
        b = render_direct_prompt("corn", FewShotBank.default())
        assert request_hash(a, ep) != request_hash(b, ep)
        assert request_hash(a, ep) == request_hash(a, ep)

    def test_hash_is_stable_across_releases(self):
        # digests of earlier releases: a change here orphans every cached transcript
        ep = EndpointConfig(base_url="http://x/v1", model_name="m")
        direct = render_direct_prompt("1 cup oats", FewShotBank.default())
        refine_req = render_refine_prompt("1 cup oats",
                                          pred(fat=1, protein=2, saturates=3, sugars=4))
        assert request_hash(direct, ep) == (
            "sha256:7b3e0525d5719f57a72396683e3025968b685d8fa3a897e9e43d99840e0d8e4c")
        assert request_hash(refine_req, ep) == (
            "sha256:5e0e9dfebcac878ec49784a92396b988c63dece2937f50026ab2f13c466b2207")


class TestCompleteMany:
    def test_failures_yield_none(self, endpoint_stub):
        endpoint_stub.script(Scripted(200, completion_body("one")),
                             Scripted(400, b"bad"))
        ep = endpoint(endpoint_stub, max_concurrency=1)
        reqs = [("a", ChatRequest(system="s", messages=({"role": "user", "content": "1"},))),
                ("b", ChatRequest(system="s", messages=({"role": "user", "content": "2"},)))]
        results = complete_many(reqs, ep)
        assert results["a"] == "one"
        assert results["b"] is None

    def test_bounded_concurrency_completes(self, endpoint_stub):
        endpoint_stub.reply_with("pong")
        ep = endpoint(endpoint_stub, max_concurrency=4)
        reqs = [(f"s{i}", ChatRequest(system="s",
                                      messages=({"role": "user", "content": str(i)},)))
                for i in range(12)]
        results = complete_many(reqs, ep)
        assert all(results[f"s{i}"] == "pong" for i in range(12))


def test_complete_reuses_one_connection_per_thread():
    """Against a keep-alive server, each thread opens one connection for all its requests."""
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    peers = set()
    body = completion_body("pong")

    class KeepAlive(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def do_POST(self):
            self.rfile.read(int(self.headers.get("Content-Length", 0)))
            peers.add(self.client_address)
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), KeepAlive)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        ep = EndpointConfig(base_url=f"http://127.0.0.1:{server.server_address[1]}/v1",
                            model_name="m", timeout=5.0, max_concurrency=2)
        reqs = [(f"s{i}", ChatRequest(system="s",
                                      messages=({"role": "user", "content": str(i)},)))
                for i in range(10)]
        results = complete_many(reqs, ep)
        assert all(results[f"s{i}"] == "pong" for i in range(10))
        assert 1 <= len(peers) <= 2
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()


LIVE_URL = os.environ.get("RECIPE_NUTRIENTS_LIVE_BASE_URL")


@pytest.mark.skipif(not LIVE_URL, reason="set RECIPE_NUTRIENTS_LIVE_BASE_URL for a live smoke test")
def test_live_endpoint_smoke():
    ep = EndpointConfig(
        base_url=LIVE_URL,
        model_name=os.environ.get("RECIPE_NUTRIENTS_LIVE_MODEL", "default"),
        api_key_env=os.environ.get("RECIPE_NUTRIENTS_LIVE_API_KEY_ENV") or None,
        timeout=120.0)
    req = render_direct_prompt("1 cup wheat flour, 2 tbsp olive oil", FewShotBank.default())
    response = complete(req, ep)
    parsed = parse_llm_nutrients(response)
    assert parsed.fat >= 0
