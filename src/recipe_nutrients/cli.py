"""Command-line pipeline: prepare, train, predict, llm tiers, evaluate, bench.

Each subcommand reads and validates all inputs before writing any output, so
usage errors never leave partial artifacts. Stage settings come from flags
only, with argparse defaults (``--format jsonl``, ``--ratio 0.8``,
``--seed 42``, ``--alpha 1.0``); ``--alpha`` and ``--alpha-grid`` exclude
each other, and ``--val`` and ``--rules`` serve ``--alpha-grid`` only. The
json config file holds only the named endpoint profiles (``endpoints``) used
by the llm subcommands, and any other top-level key is an error. Train runs
the paper's fixed configuration: the four scored nutrients, 8,000 word and
12,000 char features, and a CG solve per nutrient (tol 1e-8, at most 1,000
iterations), the four solves running side by side on the usable CPUs, and
replaces the model and its vectorizer file together; with ``--alpha-grid`` it
builds the validation rows only after the solve, once the training rows are
dropped. The vectorizer file always sits next to the model, at
``<model>.vocab.json``, where predict and bench read it, and they refuse it
unless its fingerprint is the one the model records (a model without one
matches no file); bench times each sample after 100 warm-up predictions.

Only train, predict and bench import ``features`` and ``ridge`` (and with
them numpy), inside the functions that use them, so the other stages start
without numpy; ``requests`` is loaded only when a request is sent
(``llm.complete``).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import dataset, evaluate as ev, llm
from .dataset import SCORED_NUTRIENTS
from .util import atomic_write, replace_together

if TYPE_CHECKING:
    from . import ridge

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        try:
            config = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if not isinstance(config, dict):
        raise ValueError(f"{path}: config must be a json object")
    unknown = [key for key in config if key != "endpoints"]
    if unknown:
        raise ValueError(f"{path}: unknown config keys: {', '.join(unknown)} "
                         "(the config holds only 'endpoints')")
    if not isinstance(config.get("endpoints", {}), dict):
        raise ValueError(f"{path}: 'endpoints' must be a json object of named profiles")
    return config


def _endpoint_from_config(config: dict, profile: str, path: str | None) -> llm.EndpointConfig:
    profiles = config.get("endpoints", {})
    if profile not in profiles:
        known = ", ".join(sorted(profiles)) or "none defined"
        raise ValueError(f"endpoint profile {profile!r} not found in config (profiles: {known})")
    try:
        return llm.EndpointConfig(**profiles[profile])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: endpoint profile {profile!r}: {exc}") from None


def _labeled_samples(samples: list[dataset.RecipeSample], path) -> dict[str, dataset.NutrientVector]:
    labels = {}
    for sample in samples:
        if sample.labels is None:
            raise ValueError(f"{path}: sample {sample.id!r} has no labels")
        labels[sample.id] = sample.labels
    return labels


def _nonempty_samples(path) -> list[dataset.RecipeSample]:
    """The samples of ``path``, which must hold at least one."""
    samples = dataset.load_samples(path)
    if not samples:
        raise ValueError(f"{path}: no samples")
    return samples


# --- subcommands -------------------------------------------------------------

def cmd_prepare(args, config: dict) -> int:
    raw = dataset.load_raw(args.infile, format=args.format)
    samples = []
    quality_flags = 0
    for index, row in enumerate(raw):
        try:
            labels = dataset.parse_answer(row.answer) if row.answer else None
        except dataset.ParseError as exc:
            raise ValueError(f"{args.infile}: record {index} (id {row.id!r}): {exc}") from exc
        if labels is not None and labels.saturates_exceeds_fat:
            quality_flags += 1
        samples.append(dataset.RecipeSample(
            id=row.id, ingredient_text=dataset.extract_ingredients(row.prompt), labels=labels))

    unique = dataset.deduplicate(samples)
    split = dataset.split(unique, ratio=args.ratio, seed=args.seed)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset.save_samples(out_dir / "train.jsonl", split.train)
    dataset.save_samples(out_dir / "val.jsonl", split.validation)

    print(f"raw records:      {len(raw)}")
    print(f"after dedup:      {len(unique)}")
    print(f"train:            {len(split.train)}")
    print(f"validation:       {len(split.validation)}")
    print(f"ratio/seed:       {args.ratio}/{args.seed}")
    if quality_flags:
        print(f"quality flags:    {quality_flags} samples with saturates > fat (kept)")
    return EXIT_OK


def _parse_alpha_grid(text: str) -> list[float]:
    try:
        alphas = [float(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ValueError(f"--alpha-grid: {exc}") from None
    if not alphas:
        raise ValueError("--alpha-grid: empty list")
    for alpha in alphas:
        if not (math.isfinite(alpha) and alpha > 0):
            raise ValueError(f"--alpha-grid: every value must be finite and > 0, got {alpha!r}")
    if len(set(alphas)) != len(alphas):
        repeated = next(a for i, a in enumerate(alphas) if a in alphas[:i])
        raise ValueError(f"--alpha-grid: {repeated:g} is given more than once")
    return alphas


def _predictions(model: ridge.RidgeModel, matrix, samples: list[dataset.RecipeSample]
                 ) -> dict[str, dataset.NutrientPrediction]:
    """The scored nutrients of each sample, by id, from one batched prediction."""
    from . import ridge

    columns = [model.targets.index(n) for n in dataset.NutrientPrediction.KEYS]
    rows = ridge.predict_batch(model, matrix)[:, columns].tolist()
    return {s.id: dataset.NutrientPrediction(*row) for s, row in zip(samples, rows)}


def cmd_train(args, config: dict) -> int:
    if args.alpha_grid is not None:
        alphas = _parse_alpha_grid(args.alpha_grid)
        if not args.val:
            raise ValueError("--alpha-grid requires --val for scoring")
    elif args.val or args.rules:
        raise ValueError("--val and --rules apply only with --alpha-grid")
    else:
        alphas = [args.alpha]
    from . import features, ridge

    # checks the first alpha before any work starts
    cfg = ridge.RidgeConfig(alpha=alphas[0])

    train_samples = _nonempty_samples(args.train)
    train_labels = _labeled_samples(train_samples, args.train)
    texts = [s.ingredient_text for s in train_samples]

    print(f"fitting vectorizers on {len(texts)} documents ...")
    cv = features.fit_combined(texts)
    print(f"combined dim: {cv.dim} (word {len(cv.word)} + char {len(cv.char)})")
    matrix = features.transform_batch(texts, cv)
    labels = [train_labels[s.id] for s in train_samples]

    if args.alpha_grid is not None:
        val_samples = dataset.load_samples(args.val)
        val_labels = _labeled_samples(val_samples, args.val)
        rules = ev.load_rules(args.rules)
        models = ridge.train_path(matrix, labels, alphas=alphas, config=cfg)
        # the training rows go before the validation rows are built, so the
        # two matrices never add up in the peak memory
        del matrix
        val_matrix = features.transform_batch([s.ingredient_text for s in val_samples], cv)

        best = None
        # scored in the order given, so a tie goes to the first alpha
        for model in models:
            report = ev.evaluate(_predictions(model, val_matrix, val_samples), val_labels, rules)
            mean_acc = (sum(sc.accuracy_percent for sc in report.per_nutrient.values())
                        / len(SCORED_NUTRIENTS))
            print(f"alpha={model.config.alpha:g}: mean accuracy {mean_acc:.2f} "
                  f"({', '.join(f'{n} {sc.accuracy_percent:.2f}' for n, sc in report.per_nutrient.items())})")
            if best is None or mean_acc > best[0]:
                best = (mean_acc, model)
        model = best[1]
        print(f"selected alpha={model.config.alpha:g}")
    else:
        model = ridge.train(matrix, labels, config=cfg)

    for warning in model.warnings:
        print(f"warning: {warning}", file=sys.stderr)

    model.vectorizer_fingerprint = cv.fingerprint()
    vocab_path = f"{args.out}.vocab.json"
    # the model goes last: a crash between the renames leaves a pair that
    # predict refuses by its fingerprint
    with replace_together():
        cv.save(vocab_path)
        ridge.save_model(model, args.out)
    print(f"model written to {args.out} (vectorizer: {vocab_path})")
    return EXIT_OK


def _load_model_and_vectorizer(model_path: str):
    from . import features, ridge

    model = ridge.load_model(model_path)
    missing = [n for n in SCORED_NUTRIENTS if n not in model.targets]
    if missing:
        raise ValueError(f"{model_path}: model lacks scored nutrients {', '.join(missing)} "
                         f"(targets: {', '.join(model.targets)}); retrain it")
    vocab_path = f"{model_path}.vocab.json"
    cv = features.CombinedVectorizer.load(vocab_path)
    if model.vectorizer_fingerprint != cv.fingerprint():
        raise ValueError(
            f"{model_path}: vectorizer fingerprint mismatch: model expects "
            f"{model.vectorizer_fingerprint}, {vocab_path} has {cv.fingerprint()}")
    return model, cv


def cmd_predict(args, config: dict) -> int:
    from . import features

    model, cv = _load_model_and_vectorizer(args.model)
    samples = dataset.load_samples(args.infile)
    matrix = features.transform_batch([s.ingredient_text for s in samples], cv)
    n = ev.save_predictions(args.out, _predictions(model, matrix, samples))
    print(f"wrote {n} predictions to {args.out}")
    return EXIT_OK


def cmd_llm_predict(args, config: dict) -> int:
    ep = _endpoint_from_config(config, args.endpoint, args.config)
    samples = dataset.load_samples(args.infile)
    bank = llm.FewShotBank.from_file(args.shots) if args.shots else llm.FewShotBank.default()
    cache = llm.TranscriptCache(args.cache) if args.cache else None

    items = [(s.id, llm.render_direct_prompt(s.ingredient_text, bank)) for s in samples]
    preds = llm.parse_replies(llm.complete_many(items, ep, cache=cache), llm.parse_llm_nutrients)
    failed = [s.id for s in samples if s.id not in preds]
    ev.save_predictions(args.out, preds)
    print(f"wrote {len(preds)} predictions to {args.out} "
          f"({len(failed)} failed{': ' + ', '.join(failed[:5]) if failed else ''})")
    return EXIT_OK


def cmd_refine(args, config: dict) -> int:
    ep = _endpoint_from_config(config, args.endpoint, args.config)
    preds = ev.load_predictions(args.pred)
    samples = {s.id: s for s in dataset.load_samples(args.infile)}
    missing = set(preds) - set(samples)
    if missing:
        some = ", ".join(sorted(missing)[:5])
        raise ValueError(f"{len(missing)} prediction ids have no sample text (e.g. {some})")

    cache = llm.TranscriptCache(args.cache) if args.cache else None

    items = [(sample_id, llm.render_refine_prompt(samples[sample_id].ingredient_text, pred))
             for sample_id, pred in preds.items()]
    refined = llm.parse_replies(llm.complete_many(items, ep, cache=cache), llm.parse_refine_json)
    # a failed id keeps its input prediction
    merged = llm.merge_predictions(preds, refined, set(refined))
    changed = sum(1 for sample_id in refined if refined[sample_id] != preds[sample_id])
    ev.save_predictions(args.out, merged)
    print(f"wrote {len(merged)} predictions to {args.out} ({changed} changed)")
    return EXIT_OK


def cmd_merge(args, config: dict) -> int:
    base = ev.load_predictions(args.base)
    override = ev.load_predictions(args.override)
    with open(args.ids, "r", encoding="utf-8") as fh:
        try:
            ids = {line.strip() for line in fh if line.strip()}
        except UnicodeDecodeError as exc:
            raise ValueError(f"{args.ids}: not utf-8 text: {exc}") from None
    merged = llm.merge_predictions(base, override, ids)
    ev.save_predictions(args.out, merged)
    print(f"wrote {len(merged)} predictions to {args.out} ({len(ids)} overridden)")
    return EXIT_OK


def cmd_evaluate(args, config: dict) -> int:
    preds = ev.load_predictions(args.pred)
    samples = dataset.load_samples(args.labels)
    labels = _labeled_samples(samples, args.labels)
    rules = ev.load_rules(args.rules)

    report = ev.evaluate(preds, labels, rules)
    print(report.format_table())
    if args.json_out:
        with atomic_write(args.json_out) as fh:
            json.dump(report.to_dict(), fh, indent=2)
        print(f"machine report written to {args.json_out}")
    return EXIT_OK


def cmd_bench(args, config: dict) -> int:
    from . import features, ridge

    model, cv = _load_model_and_vectorizer(args.model)
    samples = _nonempty_samples(args.infile)
    texts = [s.ingredient_text for s in samples]

    def predict_one(text: str) -> dataset.NutrientPrediction:
        return ridge.predict(model, features.transform_combined(text, cv))

    stats = ev.bench_latency(predict_one, texts, warmup=100)
    print(stats.format_line())
    return EXIT_OK


# --- argument parsing ---------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recipe-nutrients",
        description="Estimate per-100 g nutrients from recipe ingredient text.")
    parser.add_argument("--config", help="json config file holding the endpoint profiles")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="parse raw prompt/answer rows, dedup, split")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--format", choices=["jsonl", "csv"], default="jsonl")
    p.add_argument("--out", required=True, help="output directory for train.jsonl/val.jsonl")
    p.add_argument("--ratio", type=float, default=0.8)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", help="fit vectorizers and ridge model")
    p.add_argument("--train", required=True, help="canonical train.jsonl")
    p.add_argument("--out", required=True, help="model output path")
    penalty = p.add_mutually_exclusive_group()
    penalty.add_argument("--alpha", type=float, default=1.0)
    penalty.add_argument("--alpha-grid", help="comma list, e.g. 0.1,1,10,100 (requires --val)")
    p.add_argument("--val", help="validation set for --alpha-grid scoring")
    p.add_argument("--rules", help="tolerance rules for grid scoring (default: packaged)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="predict nutrients with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("llm-predict", help="direct few-shot inference via a chat endpoint")
    p.add_argument("--endpoint", required=True, help="profile name from the config file")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--shots", help="few-shot bank jsonl (default: packaged two exemplars)")
    p.add_argument("--out", required=True)
    p.add_argument("--cache", help="append-only transcript jsonl for offline replay")
    p.set_defaults(func=cmd_llm_predict)

    p = sub.add_parser("refine", help="refine predictions via a chat endpoint")
    p.add_argument("--endpoint", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--cache", help="append-only transcript jsonl for offline replay")
    p.set_defaults(func=cmd_refine)

    p = sub.add_parser("merge", help="override a subset of predictions by id")
    p.add_argument("--base", required=True)
    p.add_argument("--override", required=True)
    p.add_argument("--ids", required=True, help="text file, one id per line")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_merge)

    p = sub.add_parser("evaluate", help="tolerance-band accuracy of predictions")
    p.add_argument("--pred", required=True)
    p.add_argument("--labels", required=True, help="canonical samples jsonl with labels")
    p.add_argument("--rules", help="tolerance rules json (default: packaged)")
    p.add_argument("--json-out", help="also write the machine-readable report here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("bench", help="per-sample prediction latency")
    p.add_argument("--model", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=cmd_bench)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    try:
        config = _load_config(args.config)
        return args.func(args, config)
    except (OSError, TypeError, ValueError, LookupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
