"""Every entry point the benchmark's tracer wraps must still exist.

``bench/spans.py`` names functions by string; a rename or deletion in the
package would otherwise surface only when ``bench/run.py --trace 1`` runs.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).parents[1] / "bench" / "spans.py"


def _layers() -> dict:
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


@pytest.mark.parametrize("layer, entry", sorted(_layers().items()))
def test_span_names_resolve(layer, entry):
    module_name, names = entry
    module = importlib.import_module(module_name)
    for name in names:
        assert callable(getattr(module, name, None)), f"{module_name}.{name}"
