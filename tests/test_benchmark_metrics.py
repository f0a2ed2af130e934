import importlib
import inspect
import json
from pathlib import Path

import pytest

BENCHMARK = json.loads((Path(__file__).parents[1] / "BENCHMARK.json").read_text())
# run-level values, which name no function
RUN_LEVEL = {"metrics.gated_ratio"}


@pytest.mark.parametrize(
    "name",
    [
        m["name"]
        for m in BENCHMARK["per_layer"]
        if m["name"] not in RUN_LEVEL and not m["name"].startswith("trace.")
    ],
)
def test_per_layer_metric_names_a_public_function_or_class(name):
    """A per-layer metric ``module.function.stat`` is read from the span of
    that function, so the function must exist or the metric reads 0."""
    module_name, function, _stat = name.split(".")
    module = importlib.import_module(f"cutcal.{module_name}")
    value = getattr(module, function, None)
    assert not function.startswith("_"), name
    assert inspect.isfunction(value) or inspect.isclass(value), name
    assert value.__module__ == module.__name__, name
