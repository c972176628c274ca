"""The reference engines are test oracles, fenced off from production.

``repro.reference`` holds the seed evaluator, the Appendix A minimal
search, the Definition 4.4 enumeration and the seed exact engine.  Only
tests and benchmarks may import it: a production module importing it
would make an oracle a second engine again.  The sql engine is likewise
loaded only when a store is evaluated, so in-memory analyses never pay
for it.

Imports also flow one way between the layers: the analysis layers
(relations, queries, probability, the paper's decision procedures,
storage, tracing, the oracles) never import the front doors built on
them (sessions, the auditor, the service, workloads, the CLI), and
among them relations sit below queries, queries below probability, and
probability below the decision procedures.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "repro"


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _imported_modules(source: str, package: str):
    """Every module (or module attribute) one source file imports.

    ``package`` is the package the file's relative imports resolve
    against.
    """
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package.split(".")[: len(package.split(".")) - node.level + 1]
                target = ".".join(base + ([node.module] if node.module else []))
            else:
                target = node.module
            yield target
            for alias in node.names:
                yield f"{target}.{alias.name}"


def _is_reference(name: str) -> bool:
    return name == "repro.reference" or name.startswith("repro.reference.")


def _package_imports():
    """``(path, imported name)`` for every import of every module of the package."""
    for path in sorted(PACKAGE.rglob("*.py")):
        module = _module_name(path)
        package = module if path.name == "__init__.py" else module.rpartition(".")[0]
        for name in _imported_modules(path.read_text(encoding="utf8"), package):
            yield path, name


def test_no_production_module_imports_the_reference_package():
    offenders = [
        f"{path.relative_to(SRC)}: {name}"
        for path, name in _package_imports()
        if path.relative_to(PACKAGE).parts[0] != "reference" and _is_reference(name)
    ]
    assert not offenders, offenders


#: The analysis layers (first path component under ``src/repro``) ...
LOWER_LAYERS = (
    "relational", "cq", "probability", "core", "storage", "obs", "reference",
    "faults.py", "exceptions.py",
)
#: ... and the front doors built on them, which they must not import.
UPPER_LAYERS = ("repro.session", "repro.audit", "repro.service", "repro.workload", "repro.cli")


def test_lower_layers_never_import_the_layers_above_them():
    offenders = [
        f"{path.relative_to(SRC)}: {name}"
        for path, name in _package_imports()
        if path.relative_to(PACKAGE).parts[0] in LOWER_LAYERS
        and any(name == upper or name.startswith(upper + ".") for upper in UPPER_LAYERS)
    ]
    assert not offenders, offenders


#: Inside the analysis layers imports flow down as well: each package
#: named here imports none of the packages listed with it.
#: ``repro.cq.witness`` sits below the probability kernel that reads its
#: tables, and ``tup(D)``'s slices below every layer that reads them.
ANALYSIS_ORDER = {
    "relational": ("repro.storage", "repro.cq", "repro.probability", "repro.core"),
    "cq": ("repro.probability", "repro.core"),
    "probability": ("repro.core",),
}


@pytest.mark.parametrize("layer", sorted(ANALYSIS_ORDER))
def test_the_analysis_layers_import_only_the_layers_below_them(layer):
    above = ANALYSIS_ORDER[layer]
    offenders = [
        f"{path.relative_to(SRC)}: {name}"
        for path, name in _package_imports()
        if path.relative_to(PACKAGE).parts[0] == layer
        and any(name == upper or name.startswith(upper + ".") for upper in above)
    ]
    assert not offenders, offenders


def _identifiers(source: str):
    """Every name one source file binds, reads, imports or defines."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
            if node.asname:
                yield node.asname
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name


def test_only_the_oracles_enumerate_instances():
    # Answerability reads mask tables (repro.cq.containment.determines);
    # enumerating inst(D) is left to the oracles in repro.reference.
    allowed = {"repro.relational.instance", "repro.relational"}
    offenders = [
        str(path.relative_to(SRC))
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.relative_to(PACKAGE).parts[0] != "reference"
        and _module_name(path) not in allowed
        and "enumerate_instances" in _identifiers(path.read_text(encoding="utf8"))
    ]
    assert not offenders, offenders


def test_the_scanner_sees_every_spelling_of_the_import():
    source = (
        "from ..reference import naive_evaluate\n"
        "from .. import reference\n"
        "import repro.reference.exact\n"
        "from repro.core import criticality\n"
    )
    names = [
        name
        for name in _imported_modules(source, "repro.session")
        if _is_reference(name)
    ]
    assert names == [
        "repro.reference",
        "repro.reference.naive_evaluate",
        "repro.reference",
        "repro.reference.exact",
    ]


def test_analyses_load_neither_the_oracles_nor_the_sql_engine():
    script = """
import sys
from fractions import Fraction

import repro, repro.cli, repro.service.server, repro.service.fleet
from repro import AnalysisSession, Dictionary
from repro.bench import employee_schema

schema = employee_schema()
session = AnalysisSession(schema, dictionary=Dictionary.uniform(schema, Fraction(1, 4)))
session.decide("S(n) :- Emp(n, d0, p)", "V(n) :- Emp(n, d1, p)")
session.leakage("S(n, p) :- Emp(n, d, p)", "V(n, d) :- Emp(n, d, p)")
print(sorted(m for m in ("repro.reference", "repro.cq.sql") if m in sys.modules))
"""
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), environment.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=environment,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
