"""The benchmark's traced run wraps ipbm functions by module attribute.

A wrapped attribute that no longer exists is skipped there, and its
traced metric silently reads 0, so every attribute must exist.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# Gone since the solver takes the condition number from its one
# factorization; the benchmark still lists it, so its
# solver.condition_number.* metrics read 0 (a FOUND line in CHANGES.md).
KNOWN_STALE = {("ipbm.solver", "condition_number")}


def _wrapped():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.WRAPPED


def test_every_wrapped_attribute_exists():
    missing = {(module, attr) for module, attr, _ in _wrapped()
               if not hasattr(importlib.import_module(module), attr)}
    assert missing <= KNOWN_STALE, sorted(missing - KNOWN_STALE)
