"""The package's internal import graph, pinned module by module.

Every relative import in ``src/robustts/*.py`` (function-level ones included)
must appear in ``ALLOWED``, and every entry there must still be used, so a new
cross-layer import, or a removed one, has to edit this table on purpose.
``"__init__"`` stands for ``from . import ...``.  ``PRIVATE_IMPORTS`` pins,
the same way, the underscored names a module takes from another.
``THIRD_PARTY`` pins the top-level packages outside the standard library that
each module imports, so the runtime stays on numpy alone (no scipy).
``PUBLIC`` pins each module's ``__all__`` (``None`` where it has none), so
adding or removing a public name edits this file on purpose too.  The six
statistic names are likewise pinned to ``unitroot.py``, the one module
allowed to spell them.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "robustts"

ALLOWED = {
    "__init__": {"errors", "series", "bootstrap", "tailindex", "regression"},
    "errors": set(),
    "series": {"errors"},
    "ingest": {"errors", "series"},
    "unitroot": {"errors", "series"},
    "bootstrap": {"errors", "series", "unitroot"},
    "tailindex": {"errors"},
    "regression": {"errors", "series"},
    "report": {"bootstrap", "regression", "tailindex", "unitroot"},
    "cli": {
        "__init__", "bootstrap", "errors", "ingest", "regression", "report", "series", "tailindex",
    },
}

THIRD_PARTY = {
    "__init__": set(),
    "errors": set(),
    "series": {"numpy"},
    "ingest": {"numpy"},
    "unitroot": {"numpy"},
    "bootstrap": {"numpy"},
    "tailindex": {"numpy"},
    "regression": {"numpy"},
    "report": set(),
    "cli": set(),
}

PUBLIC = {
    "__init__": [
        "__version__", "RobusttsError", "DataError", "NumericalError", "Series", "PairedSample",
        "FactorPanel", "unit_root_report", "hill_estimate", "rank_size_estimate", "k_grid",
        "tail_curve", "predictive_report", "factor_report",
    ],
    "errors": None,
    "series": [
        "Series", "PairedSample", "FactorPanel", "difference", "simple_returns", "excess_returns",
        "align_predictive", "positive_part", "positive_window",
    ],
    "ingest": ["ingest_counts", "ingest_prices", "ingest_rates", "ingest_factors"],
    "unitroot": ["STAT_TAILS", "UnitRootStats", "default_k_max"],
    "bootstrap": [
        "SieveModel", "BootstrapResult", "UnitRootReport", "fit_sieve", "rademacher",
        "unit_root_report", "unit_root_reports",
    ],
    "tailindex": ["TailFit", "TailCurve", "hill_estimate", "rank_size_estimate", "k_grid", "tail_curve"],
    "regression": [
        "OlsFit", "HacResult", "GroupInference", "FACTOR_MODELS", "CoefficientInference",
        "InferenceReport", "PredictiveInference", "ols", "classical_tstats", "qs_kernel",
        "andrews_bandwidth", "long_run_variance", "hac_inference", "significance_stars",
        "group_partition", "im_tstat", "grouped_ols", "predictive_report", "factor_report",
    ],
    "report": ["Table", "render_table", "unitroot_table", "predict_table", "factor_table", "emit_tail_curve"],
    "cli": None,
}

# module -> {module it imports from: the private (underscored) names it takes};
# every other module takes none
PRIVATE_IMPORTS = {
    "bootstrap": {
        "series": {"_readonly"},
        "unitroot": {"_battery_rows", "_stats", "_values"},
    },
    "regression": {"series": {"_readonly"}},
    "ingest": {"series": {"_ordered_series"}},
}

# spelled as string constants in unitroot.py alone (``STAT_TAILS``)
STATISTIC_NAMES = {"LR", "MZa", "MSB", "MZt", "MPt", "ADF"}


def package_imports(path: Path) -> set[str]:
    imports = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            imports.add(node.module.split(".")[0] if node.module else "__init__")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("robustts"):
            imports.add(node.module.partition(".")[2] or "__init__")
        elif isinstance(node, ast.Import):
            imports.update(
                alias.name.partition(".")[2] or "__init__"
                for alias in node.names
                if alias.name.split(".")[0] == "robustts"
            )
    return imports


def private_imports(path: Path) -> dict[str, set[str]]:
    """Underscored, non-dunder names taken by relative imports, keyed by source module."""
    taken: dict[str, set[str]] = {}
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            names = {a.name for a in node.names if a.name.startswith("_") and not a.name.startswith("__")}
            if names:
                taken.setdefault(node.module or "__init__", set()).update(names)
    return taken


def third_party_imports(path: Path) -> set[str]:
    """Top-level names of absolute imports outside the standard library and the package."""
    imports = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            imports.add(node.module.split(".")[0])
        elif isinstance(node, ast.Import):
            imports.update(alias.name.split(".")[0] for alias in node.names)
    return imports - set(sys.stdlib_module_names) - {"robustts"}


def public_names(path: Path) -> list[str] | None:
    """The module's ``__all__`` literal, or None when it has none."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return None


def test_every_module_is_in_the_table():
    assert {p.stem for p in PACKAGE.glob("*.py")} == set(ALLOWED) == set(THIRD_PARTY) == set(PUBLIC)


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_module_imports_match_table(module):
    assert package_imports(PACKAGE / f"{module}.py") == ALLOWED[module]


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_private_imports_match_table(module):
    assert private_imports(PACKAGE / f"{module}.py") == PRIVATE_IMPORTS.get(module, {})


@pytest.mark.parametrize("module", sorted(THIRD_PARTY))
def test_third_party_imports_match_table(module):
    assert third_party_imports(PACKAGE / f"{module}.py") == THIRD_PARTY[module]


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_public_names_match_table(module):
    assert public_names(PACKAGE / f"{module}.py") == PUBLIC[module]


def string_constants(path: Path) -> set[str]:
    """String constants of a module, docstrings excluded."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    return {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings
    }


def test_statistic_names_spelled_once():
    spelled = {
        path.stem: sorted(string_constants(path) & STATISTIC_NAMES) for path in PACKAGE.glob("*.py")
    }
    assert {module: names for module, names in spelled.items() if names} == {
        "unitroot": sorted(STATISTIC_NAMES)
    }
