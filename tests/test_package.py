"""The package's public surface: everything __all__ names exists, once."""

import msetzip


def test_all_names_resolve_once():
    # a stale name breaks `from msetzip import *` but not `import msetzip`
    missing = [name for name in msetzip.__all__ if not hasattr(msetzip, name)]
    assert missing == []
    assert len(set(msetzip.__all__)) == len(msetzip.__all__)

