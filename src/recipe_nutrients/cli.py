"""Command-line pipeline: prepare, train, predict, llm tiers, evaluate, bench.

Each subcommand reads and validates all inputs before writing any output, so
usage errors never leave partial artifacts; predict, which reads its samples a
block at a time, writes its output through one temporary file that a bad
record removes. Stage settings come from flags only, with argparse defaults
(``--format jsonl``, ``--ratio 0.8``, ``--seed 42``, ``--alpha 1.0``);
``--alpha`` and ``--alpha-grid`` exclude each other, and ``--val`` and
``--rules`` serve ``--alpha-grid`` only. The json config file holds only the
named endpoint profiles (``endpoints``) used by the llm subcommands, and any
other top-level key is an error. Train runs the paper's fixed configuration:
the four scored nutrients, 8,000 word and 12,000 char features, and a CG solve
per nutrient (tol 1e-8, at most 1,000 iterations), the four solves running
side by side on the usable CPUs, and replaces the model and its vectorizer
file together. Train hands the solver a builder of its design matrix, so no
caller holds the matrix and the solver frees it once its distinct columns are
merged; with ``--alpha-grid`` the
validation rows are built only after the solve. Predict and the grid's scoring
build and score ``SCORE_ROWS`` (256) rows at a time, and predict reads each
block's samples only when it comes to them and writes the block's predictions
as soon as they are scored, so its memory depends on a block, not on the file.
Predict, llm-predict and refine refuse an input with no samples or predictions
before writing anything. The vectorizer file always sits next to the model, at
``<model>.vocab.json``, where predict and bench read it, and they refuse it
unless its fingerprint is the one the model records (a model without one
matches no file); bench times each sample after 100 warm-up predictions.

Each command imports the modules it uses inside its own function. Only
train, predict and bench import ``features`` and ``ridge`` (and with them
numpy), so the other stages start without numpy. ``evaluate`` is imported by
evaluate, predict, bench, train with ``--alpha-grid``, and the llm commands;
``llm`` by llm-predict, refine and merge; so prepare loads neither.
``requests`` is loaded only when a request is sent (``llm.complete``).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from itertools import chain, islice
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

from . import dataset
from .dataset import SCORED_NUTRIENTS
from .util import atomic_write, checked, read_json, replace_together

if TYPE_CHECKING:
    from . import evaluate as ev, llm, ridge

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2

# rows per block when predict or a grid's models score a file
SCORE_ROWS = 256


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    config, _ = read_json(path, "bad config")
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
    from . import llm

    profiles = config.get("endpoints", {})
    if profile not in profiles:
        known = ", ".join(sorted(profiles)) or "none defined"
        raise ValueError(f"endpoint profile {profile!r} not found in config (profiles: {known})")
    with checked(path, f"endpoint profile {profile!r}"):
        return llm.EndpointConfig(**profiles[profile])


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


def _streamed_samples(path) -> Iterator[dataset.RecipeSample]:
    """The samples of ``path`` as the file is read; it must hold at least one,
    which is checked here, before the first is taken."""
    samples = dataset.iter_samples(path)
    first = next(samples, None)
    if first is None:
        raise ValueError(f"{path}: no samples")
    return chain([first], samples)


def _nonempty_predictions(path) -> dict[str, dataset.NutrientPrediction]:
    """The predictions of ``path``, which must hold at least one."""
    from . import evaluate as ev

    preds = ev.load_predictions(path)
    if not preds:
        raise ValueError(f"{path}: no predictions")
    return preds


def _scoring_rules(path: str | None) -> dict[str, ev.ToleranceRule]:
    """The tolerance rules of ``path``, which must cover every scored nutrient."""
    from . import evaluate as ev

    rules = ev.load_rules(path)
    if not set(SCORED_NUTRIENTS) <= set(rules):
        raise ValueError(f"{path}: tolerance rules must cover {', '.join(SCORED_NUTRIENTS)}")
    return rules


# --- subcommands -------------------------------------------------------------

def cmd_prepare(args, config: dict) -> int:
    raw = dataset.load_raw(args.infile, format=args.format)
    if not raw:
        raise ValueError(f"{args.infile}: no records")
    samples = []
    quality_flags = 0
    record = checked(args.infile, lambda: f"record {index} (id {row.id!r})")
    for index, row in enumerate(raw):
        with record:
            labels = dataset.parse_answer(row.answer) if row.answer else None
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

    rows = ridge.predict_batch(model, matrix)[:, ridge.scored_rows(model)].tolist()
    return {s.id: dataset.NutrientPrediction(*row) for s, row in zip(samples, rows)}


def _scored_blocks(models: list[ridge.RidgeModel], samples: Iterable[dataset.RecipeSample],
                   cv):
    """Each model's predictions by id, for one block of ``SCORE_ROWS`` samples
    after another: a block's samples are taken, and its rows built, scored and
    dropped, before the next block's, so neither the whole matrix nor its
    transform's peak is ever held. A row's prediction does not depend on its
    block."""
    from . import features

    samples = iter(samples)
    while block := list(islice(samples, SCORE_ROWS)):
        matrix = features.transform_batch([s.ingredient_text for s in block], cv)
        yield [_predictions(model, matrix, block) for model in models]


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
    if args.alpha_grid is not None:
        # the scoring inputs are checked before the fit and the solves
        val_samples = _nonempty_samples(args.val)
        val_labels = _labeled_samples(val_samples, args.val)
        rules = _scoring_rules(args.rules)

    print(f"fitting vectorizers on {len(texts)} documents ...")
    cv = features.fit_combined(texts)
    print(f"combined dim: {cv.dim} (word {len(cv.word)} + char {len(cv.char)})")
    labels = [train_labels[s.id] for s in train_samples]
    # train_path builds the training rows itself and drops them once their
    # distinct columns are merged, so no frame here holds the unmerged matrix
    # and it is freed before the solves, and before any validation row is built
    models = ridge.train_path(lambda: features.transform_batch(texts, cv), labels,
                              alphas=alphas, config=cfg)

    if args.alpha_grid is not None:
        from . import evaluate as ev

        val_preds: list[dict] = [{} for _ in models]
        for block_preds in _scored_blocks(models, val_samples, cv):
            for preds, block in zip(val_preds, block_preds):
                preds.update(block)

        best = None
        # scored in the order given, so a tie goes to the first alpha
        for model, preds in zip(models, val_preds):
            report = ev.evaluate(preds, val_labels, rules)
            mean_acc = (sum(sc.accuracy_percent for sc in report.per_nutrient.values())
                        / len(SCORED_NUTRIENTS))
            print(f"alpha={model.config.alpha:g}: mean accuracy {mean_acc:.2f} "
                  f"({', '.join(f'{n} {sc.accuracy_percent:.2f}' for n, sc in report.per_nutrient.items())})")
            if best is None or mean_acc > best[0]:
                best = (mean_acc, model)
        model = best[1]
        print(f"selected alpha={model.config.alpha:g}")
    else:
        [model] = models

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
    if model.feature_dim != cv.dim:
        raise ValueError(f"{model_path}: model has {model.feature_dim} features but "
                         f"{vocab_path} has {cv.dim}; retrain it")
    return model, cv


def cmd_predict(args, config: dict) -> int:
    from . import evaluate as ev

    model, cv = _load_model_and_vectorizer(args.model)
    # the samples are read a block at a time, and each block's predictions go
    # to the output file as soon as they are scored; a bad record met on the
    # way removes the unfinished output (atomic_write)
    samples = _streamed_samples(args.infile)
    scored = (pair for [preds] in _scored_blocks([model], samples, cv) for pair in preds.items())
    n = ev.save_predictions(args.out, scored)
    print(f"wrote {n} predictions to {args.out}")
    return EXIT_OK


def cmd_llm_predict(args, config: dict) -> int:
    from . import evaluate as ev, llm

    ep = _endpoint_from_config(config, args.endpoint, args.config)
    samples = _nonempty_samples(args.infile)
    # checked before the shots, the cache or any request
    blank = next((s.id for s in samples if not s.ingredient_text.strip()), None)
    if blank is not None:
        raise ValueError(f"{args.infile}: sample {blank!r} has a blank ingredient_text")
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
    from . import evaluate as ev, llm

    ep = _endpoint_from_config(config, args.endpoint, args.config)
    preds = _nonempty_predictions(args.pred)
    samples = {s.id: s for s in dataset.load_samples(args.infile)}
    missing = set(preds) - set(samples)
    if missing:
        some = ", ".join(sorted(missing)[:5])
        raise ValueError(f"{args.pred}: {len(missing)} prediction ids have no sample text "
                         f"in {args.infile} (e.g. {some})")

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
    from . import evaluate as ev, llm

    base = ev.load_predictions(args.base)
    override = ev.load_predictions(args.override)
    with open(args.ids, "r", encoding="utf-8") as fh, checked(args.ids, "not utf-8 text"):
        ids = {line.strip() for line in fh if line.strip()}
    with checked(args.ids, f"merging {args.base} with {args.override}"):
        merged = llm.merge_predictions(base, override, ids)
    ev.save_predictions(args.out, merged)
    print(f"wrote {len(merged)} predictions to {args.out} ({len(ids)} overridden)")
    return EXIT_OK


def cmd_evaluate(args, config: dict) -> int:
    from . import evaluate as ev

    preds = _nonempty_predictions(args.pred)
    samples = _nonempty_samples(args.labels)
    labels = _labeled_samples(samples, args.labels)
    rules = _scoring_rules(args.rules)
    with checked(args.pred, f"scored against {args.labels}"):
        report = ev.evaluate(preds, labels, rules)
    print(report.format_table())
    if args.json_out:
        with atomic_write(args.json_out) as fh:
            json.dump(report.to_dict(), fh, indent=2)
        print(f"machine report written to {args.json_out}")
    return EXIT_OK


def cmd_bench(args, config: dict) -> int:
    from . import evaluate as ev, features, ridge

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
