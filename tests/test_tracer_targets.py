"""What perfbench's tracer reads from the package must exist.

The tracer patches every ``TARGETS`` entry with
``getattr(import_module(mod), attr)`` and its hooks read result attributes,
so a deleted or renamed name breaks every traced benchmark run.  These tests
read ``TARGETS`` from the tracer's source, without importing perfbench, so
that such a change fails here instead.
"""

import ast
import dataclasses
from importlib import import_module
from pathlib import Path

import pytest

from sketchsolve.expcli.runner import ResultTable
from sketchsolve.newton import NewtonTrace
from sketchsolve.sketch import SparseSketch
from sketchsolve.solver import IterLog, RateReport
from sketchsolve.spectral import ProjectionEstimate

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER} assigns no TARGETS")


TARGETS = _targets()

#: result attributes the tracer's hooks read
READ_ATTRIBUTES = [
    (ProjectionEstimate, "trials"),
    (RateReport, "short_tail"),
    (IterLog, "iterations"),
    (NewtonTrace, "f"),
    (NewtonTrace, "line_search_failures"),
    (SparseSketch, "k"),
    (SparseSketch, "s_drawn"),
    (SparseSketch, "nnz"),
]


@pytest.mark.parametrize("module, attr, span", TARGETS,
                         ids=[f"{module}.{attr}" for module, attr, _ in TARGETS])
def test_target_resolves(module, attr, span):
    assert callable(getattr(import_module(module), attr))


def test_write_csv_resolves():
    assert callable(ResultTable.write_csv)


@pytest.mark.parametrize("cls, name", READ_ATTRIBUTES,
                         ids=[f"{cls.__name__}.{name}" for cls, name in READ_ATTRIBUTES])
def test_read_attribute_exists(cls, name):
    fields = {f.name for f in dataclasses.fields(cls)}
    assert name in fields or isinstance(getattr(cls, name, None), property)
