import random

import pytest

from recipe_nutrients.dataset import (
    NutrientVector,
    RecipeSample,
    deduplicate,
    extract_ingredients,
    load_raw,
    parse_answer,
    render_answer,
    save_samples,
    load_samples,
    split,
)

CASE2_ANSWER = ("Nutrient details in 100 g: energy - 713.49, fat - 80.53, "
                "protein - 0.86, salt - 0.04, saturates - 50.10, sugars - 0.09.")
CASE1_ANSWER = ("The nutrient values demonstrated here are: energy - 99.79, fat - 0.23, "
                "protein - 0.68, salt - 3.78, saturates - 0.02, sugars - 18.86.")


def vector(energy=0, fat=0, protein=0, salt=0, saturates=0, sugars=0):
    return NutrientVector(energy=energy, fat=fat, protein=protein, salt=salt,
                          saturates=saturates, sugars=sugars)


class TestLoadRaw:
    def test_single_jsonl_record(self, tmp_path):
        path = tmp_path / "raw.jsonl"
        path.write_text('{"prompt": "P", "answer": "A"}\n')
        samples = load_raw(path, format="jsonl")
        assert len(samples) == 1
        assert (samples[0].id, samples[0].prompt, samples[0].answer) == ("0", "P", "A")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "raw.jsonl"
        path.write_text("")
        assert load_raw(path) == []

    def test_missing_prompt_names_record(self, tmp_path):
        path = tmp_path / "raw.jsonl"
        path.write_text('{"answer": "A"}\n')
        with pytest.raises(ValueError, match="record 0"):
            load_raw(path)

    def test_csv(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text('id,prompt,answer\nx1,"a, b",Z\n')
        samples = load_raw(path, format="csv")
        assert samples[0].id == "x1"
        assert samples[0].prompt == "a, b"

    def test_explicit_ids_and_duplicates(self, tmp_path):
        path = tmp_path / "raw.jsonl"
        path.write_text('{"id": "k", "prompt": "P"}\n{"id": "k", "prompt": "Q"}\n')
        with pytest.raises(ValueError, match="duplicate id"):
            load_raw(path)

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            load_raw(tmp_path / "x", format="xml")

    def test_unlabeled_row(self, tmp_path):
        path = tmp_path / "raw.jsonl"
        path.write_text('{"prompt": "P"}\n')
        assert load_raw(path)[0].answer is None


class TestExtractIngredients:
    def test_case2_prompt(self):
        prompt = ("Check the nutritional values per 100 g in a recipe that comprises "
                  "these ingredients: 2 teaspoons corn, sweet, white, raw, "
                  "1/2 cup butter, without salt.")
        assert extract_ingredients(prompt) == (
            "2 teaspoons corn, sweet, white, raw, 1/2 cup butter, without salt.")

    def test_following_ingredients_prompt(self):
        prompt = ("Identify the nutritional content per 100 grams for a recipe with "
                  "the following ingredients: 1 cup wheat flour, 2 tbsp olive oil")
        assert extract_ingredients(prompt) == "1 cup wheat flour, 2 tbsp olive oil"

    def test_no_marker_returns_whole_prompt(self):
        assert extract_ingredients("no marker here") == "no marker here"

    def test_last_marker_wins(self):
        prompt = "ingredients: decoy ingredients: real thing"
        assert extract_ingredients(prompt) == "real thing"

    def test_marker_with_empty_tail_falls_back(self):
        assert extract_ingredients("list of ingredients:") == "list of ingredients:"

    def test_never_empty_for_nonempty_prompt(self):
        for prompt in ["x", "  y  ", "ingredients: ", "INGREDIENTS:Z", "a:b"]:
            assert extract_ingredients(prompt) != ""


class TestParseAnswer:
    def test_case2(self):
        v = parse_answer(CASE2_ANSWER)
        assert v == vector(713.49, 80.53, 0.86, 0.04, 50.10, 0.09)

    def test_case1(self):
        v = parse_answer(CASE1_ANSWER)
        assert v == vector(99.79, 0.23, 0.68, 3.78, 0.02, 18.86)

    def test_zero_vector(self):
        v = parse_answer("energy - 0, fat - 0, protein - 0, salt - 0, saturates - 0, sugars - 0")
        assert v == vector()

    def test_missing_key_named(self):
        with pytest.raises(ValueError, match="sugars"):
            parse_answer("energy - 1, fat - 1, protein - 1, salt - 1, saturates - 1")

    def test_duplicate_key_named(self):
        with pytest.raises(ValueError, match="fat"):
            parse_answer("energy - 1, fat - 1, fat - 2, protein - 1, salt - 1, "
                         "saturates - 1, sugars - 1")

    def test_case_insensitive_any_order(self):
        v = parse_answer("Sugars - 1, SATURATES - 2, salt - 3, Protein - 4, FAT - 5, energy - 6")
        assert v == vector(6, 5, 4, 3, 2, 1)

    def test_exponent_read_in_full(self):
        v = parse_answer("energy - 1, fat - 1e1, protein - 1, salt - 1, saturates - 1, sugars - 1")
        assert v.fat == 10.0

    def test_number_never_read_cut_short(self):
        with pytest.raises(ValueError, match="fat"):
            parse_answer("energy - 1, fat - 9.86.5, protein - 1, salt - 1, saturates - 1, "
                         "sugars - 1")

    def test_saturated_fat_is_not_fat(self):
        with pytest.raises(ValueError, match="missing.*fat"):
            parse_answer("energy - 1, saturated fat - 2, protein - 1, salt - 1, saturates - 1, "
                         "sugars - 1")

    def test_hyphenated_compound_is_not_a_key(self):
        v = parse_answer("energy - 1, low-fat - 2, protein - 1, salt - 1, saturates - 1, "
                         "sugars - 1, fat - 4")
        assert v.fat == 4.0


class TestRenderAnswer:
    def test_zero_vector(self):
        text = render_answer(vector())
        assert "energy - 0.00" in text and "fat - 0.00" in text

    def test_case2_values(self):
        text = render_answer(vector(713.49, 80.53, 0.86, 0.04, 50.10, 0.09))
        assert "fat - 80.53" in text and "saturates - 50.10" in text

    def test_half_up_rounding(self):
        text = render_answer(vector(fat=1.005))
        assert "fat - 1.01" in text

    def test_round_trip_small_sample(self):
        rng = random.Random(3)
        for _ in range(100):
            v = vector(*(round(rng.uniform(0, 10_000), rng.randint(0, 4)) for _ in range(6)))
            parsed = parse_answer(render_answer(v))
            for name in ("energy", "fat", "protein", "salt", "saturates", "sugars"):
                assert abs(getattr(parsed, name) - getattr(v, name)) <= 0.005 + 1e-9


class TestNutrientVector:
    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="fat"):
            vector(fat=-1)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            vector(sugars=float("nan"))

    def test_saturates_exceeding_fat_is_flag_not_error(self):
        v = vector(fat=1.0, saturates=2.0)
        assert v.saturates_exceeds_fat

    def test_dict_round_trip(self):
        v = vector(1, 2, 3, 4, 5, 6)
        assert NutrientVector.from_dict(v.to_dict()) == v


def sample(i, text):
    return RecipeSample(id=str(i), ingredient_text=text)


class TestDeduplicate:
    def test_case_and_whitespace_normalization(self):
        kept = deduplicate([sample(0, "a b"), sample(1, "A  b"), sample(2, "c")])
        assert [s.id for s in kept] == ["0", "2"]

    def test_unique_list_unchanged(self):
        samples = [sample(i, f"item {i}") for i in range(5)]
        assert deduplicate(samples) == samples

    def test_idempotent(self):
        samples = [sample(i, t) for i, t in enumerate(["x", "X ", "y", "y", "z"])]
        once = deduplicate(samples)
        assert deduplicate(once) == once


class TestSplit:
    def test_sizes_10(self):
        parts = split([sample(i, f"t{i}") for i in range(10)], ratio=0.8, seed=1)
        assert (len(parts.train), len(parts.validation)) == (8, 2)

    def test_sizes_at_corpus_scale(self):
        samples = [sample(i, f"t{i}") for i in range(14_512)]
        parts = split(samples, ratio=0.8, seed=0)
        assert (len(parts.train), len(parts.validation)) == (11_609, 2_903)

    def test_deterministic(self):
        samples = [sample(i, f"t{i}") for i in range(50)]
        a = split(samples, ratio=0.8, seed=9)
        b = split(samples, ratio=0.8, seed=9)
        assert a == b

    def test_seed_changes_membership(self):
        samples = [sample(i, f"t{i}") for i in range(200)]
        a = split(samples, ratio=0.5, seed=1)
        b = split(samples, ratio=0.5, seed=2)
        assert {s.id for s in a.train} != {s.id for s in b.train}

    def test_partition(self):
        samples = [sample(i, f"t{i}") for i in range(97)]
        parts = split(samples, ratio=0.33, seed=5)
        ids = [s.id for s in parts.train] + [s.id for s in parts.validation]
        assert sorted(ids, key=int) == [s.id for s in samples]

    def test_floor_robust_to_float_error(self):
        parts = split([sample(i, f"t{i}") for i in range(10)], ratio=0.7, seed=1)
        assert len(parts.train) == 7

    def test_ratio_out_of_range(self):
        with pytest.raises(ValueError, match="ratio"):
            split([sample(0, "a"), sample(1, "b")], ratio=1.0, seed=0)

    @pytest.mark.parametrize("n, ratio, sizes", [(3, 0.3, "train 0, validation 3"),
                                                 (1, 0.5, "train 0, validation 1"),
                                                 (0, 0.5, "train 0, validation 0"),
                                                 (10, 0.99999999999, "train 10, validation 0")])
    def test_empty_split_refused(self, n, ratio, sizes):
        with pytest.raises(ValueError, match=rf"ratio {ratio} of {n} samples leaves an empty "
                                             rf"split \({sizes}\)"):
            split([sample(i, f"t{i}") for i in range(n)], ratio=ratio, seed=1)


class TestCanonicalDump:
    def test_round_trip(self, tmp_path):
        samples = [
            RecipeSample(id="a", ingredient_text="1 cup flour", labels=vector(1, 2, 3, 4, 5, 6)),
            RecipeSample(id="b", ingredient_text="2 eggs"),
        ]
        path = tmp_path / "dump.jsonl"
        save_samples(path, samples)
        assert load_samples(path) == samples

    def test_bad_record_reports_index(self, tmp_path):
        path = tmp_path / "dump.jsonl"
        path.write_text('{"id": "a"}\n')
        with pytest.raises(ValueError, match="record 0"):
            load_samples(path)

    @pytest.mark.parametrize("text", ["5", "null", "[\"oats\"]"])
    def test_ingredient_text_must_be_string(self, tmp_path, text):
        path = tmp_path / "dump.jsonl"
        path.write_text(f'{{"id": "a", "ingredient_text": "oats"}}\n'
                        f'{{"id": "b", "ingredient_text": {text}}}\n')
        with pytest.raises(ValueError, match=r"dump\.jsonl: bad sample record 1: "
                                             "ingredient_text must be a string"):
            load_samples(path)

    def test_duplicate_id_names_file_and_record(self, tmp_path):
        path = tmp_path / "dump.jsonl"
        save_samples(path, [RecipeSample(id=i, ingredient_text=f"{n} eggs")
                            for n, i in enumerate(["a", "b", "c", "b"])])
        with pytest.raises(ValueError, match=r"dump\.jsonl: record 3 has duplicate id 'b'"):
            load_samples(path)
