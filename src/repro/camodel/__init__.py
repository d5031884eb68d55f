"""CA model data structures, conventional generation flow and file IO."""

from repro.camodel.stimuli import (
    POLICIES,
    Word,
    adjacent_dynamic_words,
    exhaustive_dynamic_words,
    expected_count,
    is_dynamic_word,
    static_words,
    stimuli,
)
from repro.camodel.model import CAModel, DYNAMIC, STATIC, UNDETECTED
from repro.camodel.generate import (
    AUTO_EXHAUSTIVE_LIMIT,
    detect,
    generate_ca_model,
    generate_multi,
    resolve_policy,
)
from repro.camodel.io import (
    load_model,
    load_models,
    model_from_dict,
    model_to_dict,
    save_model,
    save_models,
)
from repro.camodel.batch import (
    LibraryGenerationError,
    ensure_unique_cell_names,
    generate_library,
)
from repro.camodel.throughput import run_throughput
from repro.camodel.merge import MergedModel, MergeError, merge_models
from repro.camodel.udfm import parse_udfm, save_udfm, to_udfm
from repro.camodel.compare import ComparisonError, LibraryDiff, ModelDiff, compare_models
from repro.camodel.stats import (
    CellStats,
    GenerationStats,
    LibraryStats,
    library_stats,
)
from repro.camodel.patterns import (
    DiagnosisCandidate,
    PatternSet,
    diagnose,
    select_patterns,
)

__all__ = [
    "Word",
    "POLICIES",
    "stimuli",
    "static_words",
    "adjacent_dynamic_words",
    "exhaustive_dynamic_words",
    "expected_count",
    "is_dynamic_word",
    "CAModel",
    "STATIC",
    "DYNAMIC",
    "UNDETECTED",
    "generate_ca_model",
    "generate_multi",
    "detect",
    "resolve_policy",
    "AUTO_EXHAUSTIVE_LIMIT",
    "save_model",
    "load_model",
    "save_models",
    "load_models",
    "model_to_dict",
    "model_from_dict",
    "select_patterns",
    "diagnose",
    "PatternSet",
    "DiagnosisCandidate",
    "CellStats",
    "GenerationStats",
    "LibraryStats",
    "library_stats",
    "compare_models",
    "ModelDiff",
    "LibraryDiff",
    "ComparisonError",
    "generate_library",
    "LibraryGenerationError",
    "ensure_unique_cell_names",
    "run_throughput",
    "to_udfm",
    "save_udfm",
    "parse_udfm",
    "merge_models",
    "MergedModel",
    "MergeError",
]
