"""Seeded synthetic corpora for the pipeline benchmark.

Two workloads share one recipe model: each line is "<quantity> <unit> <name>",
and the per-100 g labels are the mass-weighted mean of the named ingredients'
component densities (times a small per-recipe noise factor), as in the test
suite's generator. They differ only in the pantry and the recipe length:

* ``wide_vocab``: thousands of short recipes (2-6 lines) over a pantry of
  procedurally composed names (invented variety words built from syllables,
  a descriptor, a base food and a form), so both TF-IDF vocabularies reach
  their 8,000 / 12,000 caps and ridge CG dominates.
* ``long_recipes``: the 36-item pantry of the seed corpus with tens of lines
  per recipe, so text analysis and CSR assembly dominate.

Raw rows carry an injected share of duplicates that differ from an earlier row
only in case and whitespace, so ``prepare``'s dedup has work to do.

Run as a script to write a corpus and report its shape::

    python3 perfbench/corpus.py --workload wide_vocab --seed 1 --out raw.jsonl --describe
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

NUTRIENTS = ("energy", "fat", "protein", "salt", "saturates", "sugars")

# name -> per-100 g densities in NUTRIENTS order (the seed corpus's pantry)
SEED_PANTRY = {
    "butter, without salt": (717, 81.1, 0.85, 0.01, 51.4, 0.06),
    "olive oil": (884, 100.0, 0.0, 0.0, 13.8, 0.0),
    "wheat flour": (364, 0.98, 10.3, 0.0, 0.15, 0.27),
    "granulated sugar": (387, 0.0, 0.0, 0.0, 0.0, 99.8),
    "whole milk": (61, 3.25, 3.15, 0.04, 1.87, 5.05),
    "soy sauce made from soy (tamari)": (60, 0.1, 10.5, 14.5, 0.01, 1.7),
    "peanut butter, smooth style, without salt": (598, 51.1, 22.5, 0.02, 10.1, 10.5),
    "corn, sweet, white, raw": (86, 1.35, 3.2, 0.0, 0.2, 3.2),
    "peppers, sweet, green, raw": (20, 0.17, 0.86, 0.0, 0.06, 2.4),
    "spices, coriander seed": (298, 17.8, 12.4, 0.09, 0.99, 0.0),
    "chicken breast, skinless": (120, 2.6, 22.5, 0.11, 0.57, 0.0),
    "brown rice, uncooked": (370, 2.9, 7.9, 0.0, 0.58, 0.85),
    "tomatoes, red, ripe": (18, 0.2, 0.88, 0.01, 0.03, 2.6),
    "onions, raw": (40, 0.1, 1.1, 0.0, 0.04, 4.2),
    "garlic, raw": (149, 0.5, 6.4, 0.02, 0.09, 1.0),
    "carrots, raw": (41, 0.24, 0.93, 0.07, 0.03, 4.7),
    "potatoes, flesh and skin": (77, 0.09, 2.1, 0.01, 0.03, 0.78),
    "eggs, whole, raw": (143, 9.5, 12.6, 0.35, 3.1, 0.37),
    "cheddar cheese": (403, 33.1, 24.9, 1.6, 21.0, 0.48),
    "heavy whipping cream": (340, 36.1, 2.8, 0.07, 23.0, 2.9),
    "honey": (304, 0.0, 0.3, 0.01, 0.0, 82.1),
    "oats, rolled": (379, 6.5, 13.2, 0.0, 1.1, 0.99),
    "almonds, raw": (579, 49.9, 21.2, 0.0, 3.8, 4.4),
    "walnuts, english": (654, 65.2, 15.2, 0.0, 6.1, 2.6),
    "spinach, raw": (23, 0.39, 2.9, 0.2, 0.06, 0.42),
    "broccoli, raw": (34, 0.37, 2.8, 0.08, 0.04, 1.7),
    "bananas, raw": (89, 0.33, 1.1, 0.0, 0.11, 12.2),
    "apples, raw, with skin": (52, 0.17, 0.26, 0.0, 0.03, 10.4),
    "lemon juice, raw": (22, 0.24, 0.35, 0.0, 0.04, 2.5),
    "soybean oil": (884, 100.0, 0.0, 0.0, 15.7, 0.0),
    "maple syrup": (260, 0.06, 0.04, 0.02, 0.01, 60.5),
    "cocoa powder, unsweetened": (228, 13.7, 19.6, 0.05, 8.1, 1.8),
    "salmon, atlantic, raw": (208, 13.4, 20.4, 0.15, 3.1, 0.0),
    "ground beef, 80% lean": (254, 20.0, 17.2, 0.17, 7.6, 0.0),
    "yogurt, plain, whole milk": (61, 3.25, 3.5, 0.12, 2.1, 4.7),
    "coconut milk, canned": (197, 21.3, 2.0, 0.03, 18.9, 2.8),
}

# Word lists for the composed pantry. A name is "<variety> <descriptor> <base>, <form>";
# the base fixes the densities, the descriptor scales fat and sugars, and the
# variety (two or three invented syllables) only widens the vocabulary.
SYLLABLES = (
    "ka", "lo", "mir", "ve", "dan", "tor", "bri", "sel", "qua", "no", "fen", "ru",
    "gal", "pi", "zor", "me", "tha", "ul", "wen", "cos", "ja", "ber", "xi", "lun",
    "spo", "dre", "vil", "ha", "mon", "ek", "sur", "ti", "plo", "yar", "gri", "esk",
    "ob", "nad", "cru", "fi", "lem", "zo", "var", "mu", "kel", "tre", "ash", "pon",
)
DESCRIPTORS = {
    "smoked": (1.0, 1.0), "roasted": (1.05, 1.0), "organic": (1.0, 1.0),
    "reduced fat": (0.5, 1.0), "low sugar": (1.0, 0.4), "sweetened": (1.0, 1.6),
    "unsalted": (1.0, 1.0), "wild": (0.9, 0.9), "aged": (1.1, 0.8), "fresh": (1.0, 1.0),
    "dried": (1.2, 1.3), "frozen": (1.0, 1.0), "toasted": (1.1, 1.0), "creamy": (1.4, 1.1),
    "spiced": (1.0, 1.05), "glazed": (1.0, 1.8), "lean": (0.6, 1.0), "rich": (1.5, 1.2),
    "light": (0.7, 0.8), "heirloom": (1.0, 1.0), "pickled": (0.9, 1.2), "salted": (1.0, 1.0),
    "whole grain": (1.1, 0.9), "cultured": (1.0, 0.9), "candied": (1.0, 2.2),
    "stone ground": (1.05, 1.0), "cold pressed": (1.0, 1.0), "baby": (0.9, 1.1),
    "golden": (1.0, 1.1), "dark": (1.1, 0.9), "white": (1.0, 1.0), "red": (1.0, 1.05),
}
BASES = {
    "butter": (717, 81.1, 0.85, 0.01, 51.4, 0.06),
    "olive oil": (884, 100.0, 0.0, 0.0, 13.8, 0.0),
    "wheat flour": (364, 0.98, 10.3, 0.0, 0.15, 0.27),
    "cane sugar": (387, 0.0, 0.0, 0.0, 0.0, 99.8),
    "milk": (61, 3.25, 3.15, 0.04, 1.87, 5.05),
    "soy sauce": (60, 0.1, 10.5, 14.5, 0.01, 1.7),
    "peanut butter": (598, 51.1, 22.5, 0.02, 10.1, 10.5),
    "sweet corn": (86, 1.35, 3.2, 0.0, 0.2, 3.2),
    "green peppers": (20, 0.17, 0.86, 0.0, 0.06, 2.4),
    "coriander seed": (298, 17.8, 12.4, 0.09, 0.99, 0.0),
    "chicken breast": (120, 2.6, 22.5, 0.11, 0.57, 0.0),
    "brown rice": (370, 2.9, 7.9, 0.0, 0.58, 0.85),
    "tomatoes": (18, 0.2, 0.88, 0.01, 0.03, 2.6),
    "onions": (40, 0.1, 1.1, 0.0, 0.04, 4.2),
    "garlic": (149, 0.5, 6.4, 0.02, 0.09, 1.0),
    "carrots": (41, 0.24, 0.93, 0.07, 0.03, 4.7),
    "potatoes": (77, 0.09, 2.1, 0.01, 0.03, 0.78),
    "eggs": (143, 9.5, 12.6, 0.35, 3.1, 0.37),
    "cheddar": (403, 33.1, 24.9, 1.6, 21.0, 0.48),
    "whipping cream": (340, 36.1, 2.8, 0.07, 23.0, 2.9),
    "honey": (304, 0.0, 0.3, 0.01, 0.0, 82.1),
    "rolled oats": (379, 6.5, 13.2, 0.0, 1.1, 0.99),
    "almonds": (579, 49.9, 21.2, 0.0, 3.8, 4.4),
    "walnuts": (654, 65.2, 15.2, 0.0, 6.1, 2.6),
    "spinach": (23, 0.39, 2.9, 0.2, 0.06, 0.42),
    "broccoli": (34, 0.37, 2.8, 0.08, 0.04, 1.7),
    "bananas": (89, 0.33, 1.1, 0.0, 0.11, 12.2),
    "apples": (52, 0.17, 0.26, 0.0, 0.03, 10.4),
    "lemon juice": (22, 0.24, 0.35, 0.0, 0.04, 2.5),
    "soybean oil": (884, 100.0, 0.0, 0.0, 15.7, 0.0),
    "maple syrup": (260, 0.06, 0.04, 0.02, 0.01, 60.5),
    "cocoa powder": (228, 13.7, 19.6, 0.05, 8.1, 1.8),
    "salmon": (208, 13.4, 20.4, 0.15, 3.1, 0.0),
    "ground beef": (254, 20.0, 17.2, 0.17, 7.6, 0.0),
    "yogurt": (61, 3.25, 3.5, 0.12, 2.1, 4.7),
    "coconut milk": (197, 21.3, 2.0, 0.03, 18.9, 2.8),
    "lentils": (352, 1.1, 24.6, 0.01, 0.15, 2.0),
    "chickpeas": (378, 6.0, 20.5, 0.06, 0.6, 10.7),
    "pork loin": (242, 13.9, 27.3, 0.15, 5.2, 0.0),
    "tofu": (76, 4.8, 8.1, 0.02, 0.7, 0.6),
    "raisins": (299, 0.46, 3.1, 0.03, 0.06, 59.2),
    "cashews": (553, 43.9, 18.2, 0.03, 7.8, 5.9),
    "mushrooms": (22, 0.34, 3.1, 0.01, 0.05, 2.0),
    "zucchini": (17, 0.32, 1.2, 0.02, 0.08, 2.5),
    "sour cream": (198, 19.4, 2.4, 0.08, 10.1, 2.9),
    "dark chocolate": (546, 31.3, 4.9, 0.02, 18.5, 47.9),
    "pasta": (371, 1.5, 13.0, 0.01, 0.28, 2.7),
    "shrimp": (85, 0.5, 20.1, 0.3, 0.13, 0.0),
}
FORMS = (
    "raw", "chopped", "sliced", "diced", "ground", "whole", "minced", "grated",
    "shredded", "canned", "cooked", "crushed", "halved", "cubed", "mashed", "melted",
    "softened", "drained", "rinsed", "peeled", "trimmed", "julienned", "crumbled",
    "beaten", "packed",
)

UNIT_GRAMS = {"teaspoons": 4.93, "tablespoons": 14.79, "cup": 236.6, "g": 1.0}
QUANTITIES = ("1", "2", "3", "1/2", "1/4", "3/4", "1 1/2")
PROMPT_TEMPLATES = (
    "Check the nutritional values per 100 g in a recipe that comprises these ingredients: {}",
    "Identify the nutritional content per 100 grams for a recipe with the following ingredients: {}",
    "Assess the nutrient profile per 100 g of a recipe built from these ingredients: {}",
)


@dataclass(frozen=True)
class Shape:
    """How one workload's corpus and pipeline are sized."""

    n_unique: int  # distinct recipes
    n_duplicates: int  # case/whitespace variants appended after them
    lines: tuple[int, int]  # ingredient lines per recipe (inclusive range)
    pantry_size: int  # composed names; 0 selects SEED_PANTRY
    ratio: float  # prepare --ratio
    alpha_grid: str  # train --alpha-grid
    llm_samples: int  # validation samples sent through the LLM stages


# Both validation shares hold 1,050 rows, so the single-sample loop times over
# 1,000 distinct samples on each; the LLM stages take the same 500 on both.
WORKLOADS = {
    "wide_vocab": Shape(n_unique=3000, n_duplicates=150, lines=(2, 6), pantry_size=6000,
                        ratio=0.65, alpha_grid="0.1,1,10,100", llm_samples=500),
    "long_recipes": Shape(n_unique=1500, n_duplicates=75, lines=(15, 30), pantry_size=0,
                          ratio=0.3, alpha_grid="10,100", llm_samples=500),
}


def format_2dp(value: float) -> str:
    """Two decimals, half-up on the shortest decimal form (the answer format)."""
    return str(Decimal(repr(float(value))).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def compose_pantry(rng: random.Random, size: int) -> dict[str, tuple[float, ...]]:
    pantry: dict[str, tuple[float, ...]] = {}
    descriptors = sorted(DESCRIPTORS)
    bases = sorted(BASES)
    while len(pantry) < size:
        variety = "".join(rng.choice(SYLLABLES) for _ in range(rng.choice((2, 2, 3))))
        descriptor = rng.choice(descriptors)
        base = rng.choice(bases)
        name = f"{variety} {descriptor} {base}, {rng.choice(FORMS)}"
        if name in pantry:
            continue
        fat_scale, sugar_scale = DESCRIPTORS[descriptor]
        energy, fat, protein, salt, saturates, sugars = BASES[base]
        jitter = rng.uniform(0.9, 1.1)
        pantry[name] = (energy * jitter, fat * fat_scale * jitter, protein * jitter, salt,
                        saturates * fat_scale * jitter, sugars * sugar_scale * jitter)
    return pantry


def _quantity_value(token: str) -> float:
    total = 0.0
    for part in token.split():
        if "/" in part:
            num, den = part.split("/")
            total += int(num) / int(den)
        else:
            total += float(part)
    return total


def make_recipe(rng: random.Random, names: list[str], pantry: dict,
                lines_range: tuple[int, int]) -> tuple[str, dict[str, float]]:
    """One ingredient list plus its per-100 g labels (two decimals, as answers carry)."""
    chosen = rng.sample(names, rng.randint(*lines_range))
    lines = []
    total_mass = 0.0
    totals = [0.0] * len(NUTRIENTS)
    for name in chosen:
        quantity = rng.choice(QUANTITIES)
        unit = rng.choice(sorted(UNIT_GRAMS))
        grams = _quantity_value(quantity) * UNIT_GRAMS[unit]
        if unit == "g":
            grams *= rng.choice((50, 100, 200))
            lines.append(f"{int(grams)} g {name}")
        else:
            lines.append(f"{quantity} {unit} {name}")
        total_mass += grams
        for k, density in enumerate(pantry[name]):
            totals[k] += grams * density / 100.0
    noise = rng.uniform(0.97, 1.03)
    labels = {key: float(format_2dp(max(0.0, v / total_mass * 100.0 * noise)))
              for key, v in zip(NUTRIENTS, totals)}
    return ", ".join(lines), labels


@dataclass(frozen=True)
class Corpus:
    raw_rows: list[dict]  # what prepare reads
    unique: dict[str, tuple[str, dict[str, float]]]  # id -> (ingredient text, labels)


def dedup_key(text: str) -> str:
    return " ".join(text.lower().split())


def generate(workload: str, seed: int, shape: Shape | None = None) -> Corpus:
    """The raw corpus for a workload; the same (workload, seed) gives the same rows."""
    shape = shape or WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    pantry = compose_pantry(rng, shape.pantry_size) if shape.pantry_size else SEED_PANTRY
    names = sorted(pantry)
    rows: list[dict] = []
    unique: dict[str, tuple[str, dict[str, float]]] = {}
    seen: set[str] = set()
    while len(unique) < shape.n_unique:
        text, labels = make_recipe(rng, names, pantry, shape.lines)
        if dedup_key(text) in seen:
            continue
        seen.add(dedup_key(text))
        sample_id = f"r{len(unique):05d}"
        unique[sample_id] = (text, labels)
        answer = "Nutrient details in 100 g: " + ", ".join(
            f"{key} - {format_2dp(labels[key])}" for key in NUTRIENTS) + "."
        rows.append({"id": sample_id, "prompt": rng.choice(PROMPT_TEMPLATES).format(text),
                     "answer": answer})
    for j in range(shape.n_duplicates):
        source = rows[rng.randrange(len(unique))]
        mangled = source["prompt"].replace(", ", ",  ").upper()
        rows.append({"id": f"d{j:05d}", "prompt": mangled, "answer": source["answer"]})
    return Corpus(raw_rows=rows, unique=unique)


def write_jsonl(path: str | Path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")


def describe(corpus: Corpus, shape: Shape) -> dict:
    """Rows, feature dims and nnz per row of the training share, using the package."""
    from recipe_nutrients import features

    texts = [text for text, _ in corpus.unique.values()]
    train = texts[:int(shape.ratio * len(texts))]
    cv = features.fit_combined(train)
    nnz = sum(features.transform_combined(t, cv).nnz for t in train)
    return {"raw_rows": len(corpus.raw_rows), "unique_rows": len(corpus.unique),
            "train_rows": len(train), "word_dim": len(cv.word), "char_dim": len(cv.char),
            "dim": cv.dim, "nnz_per_row": round(nnz / len(train), 1)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="raw json-lines file to write")
    parser.add_argument("--describe", action="store_true",
                        help="also fit the vectorizers and print rows, dim and nnz per row")
    args = parser.parse_args(argv)
    corpus = generate(args.workload, args.seed)
    write_jsonl(args.out, corpus.raw_rows)
    if args.describe:
        print(json.dumps(describe(corpus, WORKLOADS[args.workload])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
