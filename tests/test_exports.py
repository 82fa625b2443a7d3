import os
import subprocess
import sys

import fbsdelab


def test_export_list_resolves():
    names = fbsdelab.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(fbsdelab, name)]
    assert not missing
    namespace = {}
    exec("from fbsdelab import *", namespace)
    assert set(names) <= set(namespace)


def test_import_leaves_scipy_integrate_unloaded():
    # only osgood_divergence_probe needs it, and it imports it when called
    src = os.path.dirname(os.path.dirname(fbsdelab.__file__))
    code = "import sys, fbsdelab; print('scipy.integrate' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"
