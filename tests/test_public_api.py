"""API-surface regression tests.

Locks the public API: everything in ``__all__`` must resolve, be
documented, and the facade must stay importable from the package root —
the contract a downstream user codes against.
"""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.align
import repro.core
import repro.qb
import repro.rdf
import repro.paper.rules
import repro.paper.sparql


PACKAGES = [repro, repro.rdf, repro.paper.sparql, repro.paper.rules, repro.qb, repro.align, repro.core]


@pytest.mark.parametrize("package", PACKAGES, ids=lambda p: p.__name__)
def test_all_exports_resolve(package):
    for name in package.__all__:
        assert hasattr(package, name), f"{package.__name__}.__all__ lists missing {name!r}"


@pytest.mark.parametrize("package", PACKAGES, ids=lambda p: p.__name__)
def test_public_callables_documented(package):
    undocumented = []
    for name in package.__all__:
        member = getattr(package, name)
        if inspect.isfunction(member) or inspect.isclass(member):
            if not (member.__doc__ or "").strip():
                undocumented.append(name)
    assert not undocumented, f"undocumented public items in {package.__name__}: {undocumented}"


#: Packages the serving core must not import: the paper's comparators
#: and the application extras nothing on the batch, serve or ingest
#: path runs.
OFF_CORE = ("repro.paper", "repro.sparql", "repro.rules", "repro.align")

BOUNDARY_PROBE = f"""
import json, sys
import repro, repro.cli, repro.service
loaded = lambda: sorted(m for m in sys.modules if m.startswith({OFF_CORE!r}))
at_import = loaded()
from repro.data.example import build_example_space
repro.compute_relationships(build_example_space(), method="sparql")
print(json.dumps({{"at_import": at_import, "after_sparql": loaded()}}))
"""


def test_serving_core_imports_no_comparator():
    """``repro``, ``repro.cli`` and ``repro.service`` load none of the
    comparators; asking for the SPARQL method loads its engine then."""
    src = str(Path(repro.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", BOUNDARY_PROBE],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": src},
        check=True,
    )
    modules = json.loads(proc.stdout.splitlines()[-1])
    assert modules["at_import"] == []
    assert "repro.paper.sparql" in modules["after_sparql"]
    assert "repro.paper.sparql_method" in modules["after_sparql"]


def test_version_string():
    assert repro.__version__.count(".") == 2


def test_headline_quickstart_works():
    """The README's four-line quickstart must keep working verbatim."""
    from repro import Method, compute_relationships
    from repro.data import build_realworld_cubespace

    cube = build_realworld_cubespace(scale=0.001, seed=7)
    result = compute_relationships(cube, method=Method.CUBE_MASKING)
    assert result.total() >= 0


def test_method_enum_covers_paper_and_extensions():
    from repro import Method

    values = {m.value for m in Method}
    assert {"baseline", "clustering", "cube_masking", "sparql", "rules"} <= values
    assert {"streaming", "hybrid"} <= values


def test_exception_hierarchy_rooted():
    import repro.errors as errors

    leaves = [
        errors.ParseError("x"),
        errors.SPARQLSyntaxError("x"),
        errors.RuleSyntaxError("x"),
        errors.CubeModelError("x"),
        errors.HierarchyError("x"),
        errors.AlignmentError("x"),
        errors.AlgorithmError("x"),
    ]
    assert all(isinstance(e, errors.ReproError) for e in leaves)
