"""The package's public surface: everything __all__ names exists, once,
its docstring's example runs as written, importing it leaves numpy and
dataclasses unloaded, and the codec does not import the trie."""

import ast
import doctest
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


def test_docstring_example_runs():
    # testmod prints each failing example of the package docstring; an
    # empty run would pass vacuously, so at least one example must run
    failed, attempted = doctest.testmod(msetzip)
    assert attempted > 0
    assert failed == 0


def test_import_leaves_numpy_unloaded():
    # the coding tables use math alone, so numpy is no runtime dependency
    env = {**os.environ, "PYTHONPATH": str(Path(msetzip.__file__).parents[1])}
    code = "import sys, msetzip; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


def test_import_leaves_dataclasses_unloaded():
    # the value types are plain slotted classes, so no dataclass writes and
    # compiles their methods at each start; bench, whose records are one,
    # loads only with a bench command
    env = {**os.environ, "PYTHONPATH": str(Path(msetzip.__file__).parents[1])}
    code = "import sys, msetzip, msetzip.cli; print('dataclasses' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


def test_codec_does_not_import_the_trie():
    # the codec reads the trie's counts off the sorted members; a
    # MultisetTree reaches it only as an iterable of members
    package = Path(msetzip.__file__).parent
    for module in ("treecodec.py", "container.py", "bench.py"):
        imported = set()
        for node in ast.walk(ast.parse((package / module).read_text())):
            if isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
        assert not any(name.split(".")[-1] == "msettree" for name in imported), module
