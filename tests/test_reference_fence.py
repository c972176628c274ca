"""The reference engines are test oracles, fenced off from production.

``repro.reference`` holds the seed evaluator, the Appendix A minimal
search, the Definition 4.4 enumeration and the seed exact engine.  Only
tests and benchmarks may import it: a production module importing it
would make an oracle a second engine again.  The sql engine is likewise
loaded only when a store is evaluated, so in-memory analyses never pay
for it.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

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


def test_no_production_module_imports_the_reference_package():
    offenders = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.relative_to(PACKAGE).parts[0] == "reference":
            continue
        module = _module_name(path)
        package = module if path.name == "__init__.py" else module.rpartition(".")[0]
        offenders += [
            f"{path.relative_to(SRC)}: {name}"
            for name in _imported_modules(path.read_text(encoding="utf8"), package)
            if _is_reference(name)
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
