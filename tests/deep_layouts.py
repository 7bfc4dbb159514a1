"""Print a sha256 of each deep build's stored columns.

Builds the nine deep builds of ``perfbench/workloads.py`` (``DEEP_BUILDS``)
and prints one ``family depth sha256`` line each, the digest taken over
every level's ``types`` and ``bounds`` bytes in level order.  Run it
under two hash seeds and compare the outputs: the builder's per-type
tables are dicts keyed by type characters, and no layout may depend on
their order.

    PYTHONHASHSEED=1 PYTHONPATH=src python tests/deep_layouts.py
"""
import hashlib
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "perfbench"))

from stonetrim import BuildConfig, build_levels, family  # noqa: E402
from workloads import DEEP_BUILDS  # noqa: E402


def columns_digest(tag: str, depth: int) -> str:
    """sha256 of every level's types, then posts, as stored."""
    h = hashlib.sha256()
    for lvl in build_levels(BuildConfig(family(tag)), depth).levels:
        h.update(lvl.types.tobytes())
        h.update(lvl.bounds.tobytes())
    return h.hexdigest()


if __name__ == "__main__":
    for tag, depth in DEEP_BUILDS:
        print(tag, depth, columns_digest(tag, depth))
