"""Every binding site that the traced benchmark run patches must exist.

perfbench/tracing.py names library functions and methods by module and
attribute.  A rename that leaves one of them behind would make the traced
run fail or lose a span, so this test resolves each name against the
package with the tracer's own lookup, without installing the tracer.
"""

import importlib
import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / \
    "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_binding_site_resolves():
    tracing = _tracing()
    sites = [site for sites in tracing.SPANS.values() for site in sites]
    sites += [(module, attr) for module, attr, _ in tracing.COUNTERS.values()]
    sites += [("quantales.quantale", f"QuantaleMap.{kind}")
              for kind in ("star", "shriek")]
    unresolved = []
    for module, attr in sites:
        importlib.import_module(module)
        try:
            resolved = callable(tracing._resolve(module, attr)[2])
        except (AttributeError, KeyError):
            resolved = False
        if not resolved:
            unresolved.append(f"{module}:{attr}")
    assert len(sites) > 60
    assert unresolved == []
