"""The traced benchmark's span targets must exist in the package, so a refactor
that drops or renames a traced function fails here rather than in a traced run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


@pytest.mark.parametrize("module_name, attr", _targets())
def test_bench_span_target_resolves(module_name, attr):
    """Each (module, attribute) resolves as bench/spans.install looks it up: a
    module-level callable, or a method defined on the class itself."""
    owner = importlib.import_module(f"infobell.{module_name}")
    if "." in attr:
        cls_name, method = attr.split(".")
        assert callable(vars(getattr(owner, cls_name)).get(method))
    else:
        assert callable(getattr(owner, attr, None))
