"""The benchmark's trace hooks still find, wrap and restore every library attribute.

``perfbench/spans.py`` wraps library functions by attribute name, so a
refactor that renames or moves one would break ``perfbench/run.py --trace 1``
without failing any library test.  The module is compiled from its source
here, without importing it as a package or writing bytecode next to it.
"""

import types
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans() -> types.ModuleType:
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def test_every_traced_attribute_exists_and_is_restored():
    spans = load_spans()
    targets = [(owner, attr) for owner, attr, _name, _count in spans._TARGETS]
    for owner, attr in targets:
        assert attr in vars(owner), f"{owner.__name__}.{attr} is traced but no longer exists"
    before = {key: vars(key[0])[key[1]] for key in targets}
    with spans.Tracer().installed():
        for owner, attr in targets:
            assert vars(owner)[attr] is not before[owner, attr], f"{owner.__name__}.{attr} was not wrapped"
    for owner, attr in targets:
        assert vars(owner)[attr] is before[owner, attr], f"{owner.__name__}.{attr} was not restored"
