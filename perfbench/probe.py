"""Fresh-process probe: set-up time, then optionally a single-sample latency loop.

Set-up is what a user's first prediction costs: import the package, load the
trained model and its vectorizer, check the fingerprint pair and predict one
sample. The probe prints ``ready`` once that prediction has returned, so the
parent can time set-up from process start. With ``--loop`` it then predicts
every sample of ``--samples`` once, one at a time after a warm-up, and prints
one json line with each sample's latency and prediction.

Usage::

    python3 perfbench/probe.py --model model.bin --samples val.jsonl [--loop]
"""

from __future__ import annotations

import argparse
import json
import sys
import time

WARMUP = 100


def first_text(samples_path: str) -> str:
    with open(samples_path, encoding="utf-8") as fh:
        return json.loads(fh.readline())["ingredient_text"]


def load_predictor(model_path: str, text: str):
    """Load model and vectorizer, check the pair and predict ``text`` once."""
    from recipe_nutrients import features, ridge

    model = ridge.load_model(model_path)
    cv = features.CombinedVectorizer.load(f"{model_path}.vocab.json")
    if model.vectorizer_fingerprint != cv.fingerprint():
        raise ValueError(f"{model_path}: vectorizer fingerprint mismatch")
    ridge.predict(model, features.transform_combined(text, cv))
    return model, cv


def latency_loop(model, cv, samples_path: str) -> dict:
    """One closed-loop caller: each sample predicted once, after a warm-up."""
    from recipe_nutrients import dataset, features, ridge

    samples = dataset.load_samples(samples_path)
    texts = [s.ingredient_text for s in samples]
    for i in range(WARMUP):
        ridge.predict(model, features.transform_combined(texts[i % len(texts)], cv))
    latencies_ns = []
    preds = []
    clock = time.perf_counter_ns
    for text in texts:
        start = clock()
        pred = ridge.predict(model, features.transform_combined(text, cv))
        latencies_ns.append(clock() - start)
        preds.append(pred.to_dict())
    return {"ids": [s.id for s in samples], "latencies_ns": latencies_ns, "predictions": preds}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="set-up and single-sample latency probe")
    parser.add_argument("--model", required=True)
    parser.add_argument("--samples", required=True, help="canonical samples json-lines")
    parser.add_argument("--loop", action="store_true")
    args = parser.parse_args(argv)

    model, cv = load_predictor(args.model, first_text(args.samples))
    print("ready", flush=True)
    if args.loop:
        print(json.dumps(latency_loop(model, cv, args.samples)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
