"""The benchmark's span targets and the package exports name objects the
package still has.

``perfbench/spans.py`` replaces each function it traces by name; a renamed
or deleted target would leave its layer untimed.  The file is loaded, never
edited.  A stale entry in ``smallgain.__all__`` breaks only
``from smallgain import *``.
"""

import importlib
import importlib.util
import pathlib

import smallgain

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_span_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    entries = [t[:4] for t in spans.TARGETS] + list(spans.COUNTED)
    assert len(entries) > 30
    missing = []
    for name, module, attr, cls in entries:
        mod = importlib.import_module(f"smallgain.{module}")
        # a method is patched on the class that defines it, as spans.py does
        owner = vars(getattr(mod, cls)) if cls is not None else vars(mod)
        if not callable(owner.get(attr)):
            missing.append(name)
    assert not missing


def test_package_exports_resolve():
    assert len(smallgain.__all__) == len(set(smallgain.__all__))
    assert [name for name in smallgain.__all__ if not hasattr(smallgain, name)] == []
