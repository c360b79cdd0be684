"""A family in canonical block order, for tests that compare against one."""

from affgeo import FlatFamily


def canonical(fam: FlatFamily) -> FlatFamily:
    """fam with its blocks sorted by sort_key, as construct and render order them."""
    return FlatFamily(fam.geometry, tuple(sorted(fam.blocks, key=lambda b: b.sort_key())))
