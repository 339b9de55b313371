"""The traced benchmark run wraps districtor where each layer is looked up
(``perfbench/layers.py``, ``PATCHES``). A renamed or deleted attribute
would only break ``perfbench/run.py --trace 1``; this test fails instead.
"""

import sys
from pathlib import Path

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")


def test_every_patch_site_resolves_to_a_callable():
    sys.path.insert(0, PERFBENCH)
    try:
        import layers
    finally:
        sys.path.remove(PERFBENCH)
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in layers.PATCHES
        if not callable(getattr(owner, attr, None))
    ]
    assert layers.PATCHES
    assert not missing, f"patched but not defined: {missing}"
