"""Per-100 g nutrient estimation from free-text recipe ingredient lists."""

from .dataset import (
    DatasetSplit,
    NutrientVector,
    RawSample,
    RecipeSample,
    deduplicate,
    extract_ingredients,
    load_raw,
    parse_answer,
    render_answer,
    split,
)
from .features import (
    CombinedVectorizer,
    VectorizerConfig,
    Vocabulary,
    char_config,
    fit,
    fit_combined,
    transform,
    transform_batch,
    transform_combined,
    word_config,
)
from .ridge import NutrientPrediction, RidgeConfig, RidgeModel, load_model, predict, save_model, train

__version__ = "0.1.0"
