"""The benchmark's tracer still finds every function it wraps.

``bench/tracing.py`` wraps package functions by module and attribute name
(``TARGETS``), so renaming or reshaping one of them (``_gamma_points``,
say) breaks a traced benchmark run.  This test installs the tracer in a
child process started in ``bench/``, as ``bench/run.py --trace 1`` does,
and checks that every target resolves, is wrapped, and is put back.
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


def test_every_target_resolves_and_is_restored():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(symvar.__file__)))
    done = subprocess.run([sys.executable, "-c", PROBE], cwd=os.path.join(ROOT, "bench"),
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) > 0
