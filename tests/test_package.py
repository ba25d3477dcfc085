"""The package as users load it: lazy submodules and the demo scripts."""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ENV = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))


def run_python(args, **kwargs):
    return subprocess.run([sys.executable, *args], env=ENV, capture_output=True, text=True,
                          timeout=120, **kwargs)


def test_submodules_load_on_first_access():
    code = ("import sys\n"
            "import spinqft\n"
            "assert 'spinqft.nmr' not in sys.modules and 'numpy' not in sys.modules\n"
            "assert callable(spinqft.nmr.run)\n"
            "from spinqft import tomography\n"
            "assert tomography is sys.modules['spinqft.tomography']\n"
            "try:\n"
            "    spinqft.nope\n"
            "except AttributeError:\n"
            "    print('ok')\n")
    done = run_python(["-c", code])
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"


@pytest.mark.parametrize("script", sorted(glob.glob(os.path.join(ROOT, "demos", "*.py"))),
                         ids=os.path.basename)
def test_demo_runs(script, tmp_path):
    done = run_python([script], cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout
