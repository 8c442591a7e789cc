"""Eviction policies: LRU ordering and ARC adaptation."""

import pytest

from repro.cache import ARCPolicy, BlockCache, LRUPolicy, make_policy


def test_make_policy_dispatch():
    assert isinstance(make_policy("lru", 4), LRUPolicy)
    assert isinstance(make_policy("ARC", 4), ARCPolicy)
    with pytest.raises(ValueError):
        make_policy("clock", 4)
    with pytest.raises(ValueError):
        make_policy("lru", 0)


def test_lru_victims_oldest_first():
    p = LRUPolicy(3)
    for b in (1, 2, 3):
        p.on_insert(b)
    p.on_hit(1)
    assert list(p.victims()) == [2, 3, 1]


def test_arc_promotes_rereferenced_blocks():
    p = ARCPolicy(4)
    for b in (1, 2, 3):
        p.on_insert(b)
    p.on_hit(2)  # t1 -> t2
    assert 2 in p._t2 and 2 not in p._t1
    # t1 exceeds p (0), so recency list is preferred for eviction.
    assert list(p.victims())[0] == 1


def test_arc_ghost_hit_adapts_target():
    p = ARCPolicy(4)
    p.on_insert(1)
    p.on_evict(1)  # 1 moves to the b1 ghost list
    assert 1 in p._b1
    p.on_insert(1)  # ghost hit: p grows, block resurfaces in t2
    assert p.p >= 1
    assert 1 in p._t2 and 1 not in p._b1


def test_arc_scan_resistance():
    """A one-shot scan must not displace the re-referenced working set."""
    cache = BlockCache(0, capacity_blocks=4, policy="arc")
    for b in (1, 2):
        cache.insert(b)
        cache.lookup(b)  # promote to t2
    for b in range(100, 110):  # scan of never-re-referenced blocks
        cache.insert(b)
    assert 1 in cache and 2 in cache


def test_arc_ghost_lists_bounded():
    p = ARCPolicy(4)
    for b in range(40):
        p.on_insert(b)
        p.on_evict(b)
    total = len(p._t1) + len(p._t2) + len(p._b1) + len(p._b2)
    assert total <= 2 * p.capacity_blocks


def test_cache_accepts_policy_instance():
    p = LRUPolicy(2)
    cache = BlockCache(0, capacity_blocks=2, policy=p)
    assert cache.policy is p


#: Blocks evicted by :func:`_eviction_trace` (seed 7), captured when
#: ``victims()`` still returned a copied list: walking the live view
#: must pick the same first clean block every time.
_PINNED_EVICTIONS = {
    "lru": [
        10, 2, 3, 6, 7, 13, 1, 4, 21, 18, 6, 17, 14, 16, 13, 15, 10, 2,
        8, 21, 19, 1, 9, 7, 15, 14, 8, 12, 4, 7, 18, 9, 13, 16, 18, 12,
        20, 6, 1, 3, 19, 15, 14, 23, 22, 9, 8, 5, 16, 6, 7, 15, 0, 8,
    ],
    "arc": [
        10, 2, 3, 6, 7, 13, 21, 1, 10, 17, 14, 16, 4, 2, 6, 13, 10, 2,
        21, 15, 8, 15, 8, 14, 13, 4, 7, 9, 13, 19, 18, 16, 18, 12, 6, 1,
        3, 19, 15, 9, 16, 22, 9, 20, 14, 16, 23, 7, 5, 15, 8, 23,
    ],
}


def _eviction_trace(policy, seed=7, steps=120, capacity=6, universe=24):
    """Seeded mix of fills, hits, dirtying writes, destages and
    invalidations; returns the evicted blocks in order."""
    import random

    rng = random.Random(seed)
    cache = BlockCache(0, capacity_blocks=capacity, policy=policy)
    evicted = []
    for _ in range(steps):
        block = rng.randrange(universe)
        roll = rng.random()
        before = set(cache._state)
        if roll < 0.35:
            if not cache.lookup(block):
                cache.insert(block)
        elif roll < 0.55:
            cache.admit_write(block, full_block=True)
        elif roll < 0.75:
            dirty = cache.dirty_blocks()[:2]
            if dirty:
                cache.begin_destage(dirty)
                cache.complete_destage(dirty)
        elif roll < 0.8:
            cache.invalidate(block)
        else:
            cache.insert(block)
        evicted.extend(sorted(before - set(cache._state) - {block}))
    return evicted


@pytest.mark.parametrize("policy", ["lru", "arc"])
def test_seeded_victim_order_pinned(policy):
    assert _eviction_trace(policy) == _PINNED_EVICTIONS[policy]
