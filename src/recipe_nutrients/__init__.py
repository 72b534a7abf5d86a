"""Per-100 g nutrient estimation from free-text recipe ingredient lists."""

__version__ = "0.1.0"
