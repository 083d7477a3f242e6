"""The package's public surface: everything __all__ names exists, once,
and importing it leaves numpy unloaded."""

import os
import subprocess
import sys
from pathlib import Path

import msetzip


def test_all_names_resolve_once():
    # a stale name breaks `from msetzip import *` but not `import msetzip`
    missing = [name for name in msetzip.__all__ if not hasattr(msetzip, name)]
    assert missing == []
    assert len(set(msetzip.__all__)) == len(msetzip.__all__)


def test_import_leaves_numpy_unloaded():
    # the coding tables use math alone, so numpy is no runtime dependency
    env = {**os.environ, "PYTHONPATH": str(Path(msetzip.__file__).parents[1])}
    code = "import sys, msetzip; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"
