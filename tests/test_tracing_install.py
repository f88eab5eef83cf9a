"""The benchmark's tracer still finds every function it wraps.

``bench/tracing.py`` wraps package functions by module and attribute name
(``TARGETS``), so renaming or reshaping one of them (``_gamma_points``,
say) breaks a traced benchmark run.  This test installs the tracer in a
child process started in ``bench/``, as ``bench/run.py --trace 1`` does,
and checks that every target resolves, is wrapped, and is put back, on
its own module and on every module that imported it by name.
"""

import os
import subprocess
import sys

import symvar

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PROBE = """
import sys
import tracing

import symvar.cli

originals = {}
for modname, attr, *_ in tracing.TARGETS:
    module = sys.modules.get(modname)
    assert module is not None, f"{modname} is not loaded by symvar.cli"
    assert hasattr(module, attr), f"{modname}.{attr} is missing"
    originals[modname, attr] = getattr(module, attr)
restore = tracing.install(tracing.Tracer())
for (modname, attr), fn in originals.items():
    assert getattr(sys.modules[modname], attr) is not fn, f"{modname}.{attr} is not wrapped"
restore()
for (modname, attr), fn in originals.items():
    assert getattr(sys.modules[modname], attr) is fn, f"{modname}.{attr} is not restored"
print(len(originals))
"""

# a module that install() runs while it walks the modules binds the
# wrappers of the targets already replaced, which restore() cannot know
NO_WRAPPER_LEFT = """
import sys
import tracing

import symvar.cli

originals = {attr: getattr(sys.modules[modname], attr) for modname, attr, *_ in tracing.TARGETS}
tracing.install(tracing.Tracer())()
left = sorted((name, attr) for name, module in list(sys.modules.items())
              if name.startswith("symvar.")
              for attr, fn in originals.items() if vars(module).get(attr, fn) is not fn)
assert not left, left
print(len(originals))
"""


def run_in_bench(code):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(symvar.__file__)))
    done = subprocess.run([sys.executable, "-c", code], cwd=os.path.join(ROOT, "bench"),
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return int(done.stdout)


def test_every_target_resolves_and_is_restored():
    assert run_in_bench(PROBE) > 0


def test_restore_leaves_no_wrapper_on_any_module():
    assert run_in_bench(NO_WRAPPER_LEFT) > 0
