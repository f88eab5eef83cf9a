"""The benchmark's tracer still finds every function it wraps.

``bench/tracing.py`` wraps package functions by module and attribute name
(``TARGETS``), so renaming or reshaping one of them (``_gamma_points``,
say) breaks a traced benchmark run.  One child process started in
``bench/``, as ``bench/run.py --trace 1`` does, installs the tracer and
restores it.  The tests check that every target resolves, is wrapped, and
is put back, on its own module and on every module that imported it by
name.
"""

import json
import os

import pytest

from test_golden_cli import run_python

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# a module that install() runs while it walks the modules binds the
# wrappers of the targets already replaced, which restore() cannot know:
# "left" names each symvar module that still holds a wrapper
PROBE = """
import json, sys
import tracing

import symvar.cli

originals = {}
for modname, attr, *_ in tracing.TARGETS:
    module = sys.modules.get(modname)
    assert module is not None, f"{modname} is not loaded by symvar.cli"
    assert hasattr(module, attr), f"{modname}.{attr} is missing"
    originals[modname, attr] = getattr(module, attr)
restore = tracing.install(tracing.Tracer())
unwrapped = [f"{m}.{a}" for (m, a), fn in originals.items() if getattr(sys.modules[m], a) is fn]
restore()
unrestored = [f"{m}.{a}" for (m, a), fn in originals.items()
              if getattr(sys.modules[m], a) is not fn]
by_attr = {a: fn for (_, a), fn in originals.items()}
left = sorted(f"{name}.{a}" for name, module in list(sys.modules.items())
              if name.startswith("symvar.")
              for a, fn in by_attr.items() if vars(module).get(a, fn) is not fn)
print(json.dumps({"targets": len(originals), "unwrapped": unwrapped,
                  "unrestored": unrestored, "left": left}))
"""


@pytest.fixture(scope="module")
def probe():
    code, out, err = run_python("-c", PROBE, cwd=os.path.join(ROOT, "bench"))
    assert code == 0, err
    return json.loads(out)


def test_every_target_resolves_and_is_restored(probe):
    assert probe["targets"] > 0
    assert (probe["unwrapped"], probe["unrestored"]) == ([], [])


def test_restore_leaves_no_wrapper_on_any_module(probe):
    assert probe["targets"] > 0 and probe["left"] == []
