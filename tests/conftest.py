"""Shared fixtures: synthetic recipe corpus and a scripted chat endpoint."""

from __future__ import annotations

import json
import random
import threading
import warnings
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import settings

from recipe_nutrients import cli
from recipe_nutrients.util import format_decimal

pytest_plugins = ["pytester"]

# a longer search for the property tests, chosen with --hypothesis-profile=ci;
# with no deadline, a slow runner does not fail an example for its time alone
settings.register_profile("ci", max_examples=1000, deadline=None)

# hypothesis imports this module when a property fails, to suggest an
# @example; the libcst it imports raises a DeprecationWarning, which the
# "warnings are errors" filter would turn into a pytest INTERNALERROR that
# hides the falsifying example and stops the run. Imported here once, with
# that warning ignored, so the filter stays in force for all other code.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

# name -> per-100 g densities (energy, fat, protein, salt, saturates, sugars)
PANTRY = {
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

UNIT_GRAMS = {"teaspoons": 4.93, "tablespoons": 14.79, "cup": 236.6, "g": 1.0}
QUANTITIES = ["1", "2", "3", "1/2", "1/4", "3/4", "1 1/2"]

PROMPT_TEMPLATES = [
    "Check the nutritional values per 100 g in a recipe that comprises these ingredients: {}",
    "Identify the nutritional content per 100 grams for a recipe with the following ingredients: {}",
    "Assess the nutrient profile per 100 g of a recipe built from these ingredients: {}",
]


def _quantity_value(token: str) -> float:
    total = 0.0
    for part in token.split():
        if "/" in part:
            num, den = part.split("/")
            total += int(num) / int(den)
        else:
            total += float(part)
    return total


def make_recipe(rng: random.Random) -> tuple[str, dict[str, float]]:
    """One synthetic ingredient list plus its per-100 g nutrient labels."""
    n_lines = rng.randint(2, 6)
    names = rng.sample(sorted(PANTRY), n_lines)
    lines = []
    total_mass = 0.0
    totals = [0.0] * 6
    for name in names:
        quantity = rng.choice(QUANTITIES)
        unit = rng.choice(sorted(UNIT_GRAMS))
        grams = _quantity_value(quantity) * UNIT_GRAMS[unit]
        if unit == "g":
            grams *= rng.choice([50, 100, 200])
            lines.append(f"{int(grams)} g {name}")
        else:
            lines.append(f"{quantity} {unit} {name}")
        total_mass += grams
        for k, density in enumerate(PANTRY[name]):
            totals[k] += grams * density / 100.0
    noise = rng.uniform(0.97, 1.03)
    labels = [max(0.0, v / total_mass * 100.0 * noise) for v in totals]
    keys = ("energy", "fat", "protein", "salt", "saturates", "sugars")
    return ", ".join(lines), dict(zip(keys, labels))


def make_raw_rows(n: int, seed: int = 7, n_duplicates: int = 0) -> list[dict]:
    """Raw prompt/answer rows; appended duplicates vary only case/whitespace."""
    rng = random.Random(seed)
    rows = []
    seen = set()
    while len(rows) < n:
        text, labels = make_recipe(rng)
        if " ".join(text.lower().split()) in seen:
            continue
        seen.add(" ".join(text.lower().split()))
        prompt = rng.choice(PROMPT_TEMPLATES).format(text)
        answer = "Nutrient details in 100 g: " + ", ".join(
            f"{key} - {format_decimal(value)}" for key, value in labels.items()) + "."
        rows.append({"id": f"r{len(rows):05d}", "prompt": prompt, "answer": answer})
    for j in range(n_duplicates):
        source = rows[rng.randrange(len(rows))]
        mangled = source["prompt"].replace(", ", ",  ").upper()
        rows.append({"id": f"d{j:05d}", "prompt": mangled, "answer": source["answer"]})
    return rows


def write_jsonl(path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


@pytest.fixture(scope="session")
def raw_corpus(tmp_path_factory):
    """A small raw corpus file with duplicates, for CLI-level tests."""
    path = tmp_path_factory.mktemp("corpus") / "raw.jsonl"
    write_jsonl(path, make_raw_rows(400, seed=11, n_duplicates=40))
    return path


@pytest.fixture(scope="session")
def trained_pipeline(tmp_path_factory):
    """prepare + train on a mid-size synthetic corpus; shared across tests."""
    root = tmp_path_factory.mktemp("pipeline")
    raw = root / "raw.jsonl"
    write_jsonl(raw, make_raw_rows(2500, seed=23))
    data_dir = root / "data"
    assert cli.run(["prepare", "--in", str(raw), "--out", str(data_dir),
                    "--ratio", "0.6", "--seed", "42"]) == 0
    model_path = root / "model.bin"
    assert cli.run(["train", "--train", str(data_dir / "train.jsonl"),
                    "--out", str(model_path), "--alpha", "1.0"]) == 0
    return {"root": root, "raw": raw, "data": data_dir, "model": model_path,
            "train": data_dir / "train.jsonl", "val": data_dir / "val.jsonl"}


# --- scripted chat endpoint ---------------------------------------------------

def completion_body(text: str) -> bytes:
    return json.dumps({"choices": [{"message": {"content": text}}]}).encode("utf-8")


@dataclass
class Scripted:
    status: int
    body: bytes
    content_type: str = "application/json"
    # a Content-Length larger than the body cuts the reply short: the body is
    # sent and the connection closed
    content_length: int | None = None
    content_encoding: str | None = None


class ScriptedServer:
    """Local chat-completions stub; responses play back in order."""

    def __init__(self) -> None:
        self.queue: list[Scripted] = []
        self.default: Scripted | None = None
        self.requests: list[dict] = []
        self._lock = threading.Lock()
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                payload = json.loads(self.rfile.read(length)) if length else {}
                with outer._lock:
                    outer.requests.append(
                        {"path": self.path, "payload": payload,
                         "authorization": self.headers.get("Authorization")})
                    scripted = outer.queue.pop(0) if outer.queue else outer.default
                if scripted is None:
                    scripted = Scripted(200, completion_body("OK"))
                self.send_response(scripted.status)
                self.send_header("Content-Type", scripted.content_type)
                if scripted.content_encoding is not None:
                    self.send_header("Content-Encoding", scripted.content_encoding)
                length = scripted.content_length
                if length is None:
                    length = len(scripted.body)
                self.send_header("Content-Length", str(length))
                self.end_headers()
                self.wfile.write(scripted.body)
                if length > len(scripted.body):
                    self.close_connection = True

            def log_message(self, *args):
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()

    @property
    def base_url(self) -> str:
        return f"http://127.0.0.1:{self._server.server_address[1]}/v1"

    def script(self, *responses: Scripted) -> None:
        self.queue.extend(responses)

    def reply_with(self, text: str) -> None:
        self.default = Scripted(200, completion_body(text))

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()


@pytest.fixture
def endpoint_stub():
    server = ScriptedServer()
    yield server
    server.stop()
