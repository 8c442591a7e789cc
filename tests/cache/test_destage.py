"""Destage policies: triggers, run coalescing, mirror-group cuts."""

import pytest

from repro.cache import (
    BlockCache,
    CacheConfig,
    IdleDestage,
    MirrorCoalescingDestage,
    ThresholdDestage,
    coalesce_runs,
    make_destage_policy,
)


def dirty_cache(blocks):
    c = BlockCache(0, capacity_blocks=64)
    for b in blocks:
        c.admit_write(b, full_block=True)
    return c


def test_coalesce_contiguous_runs():
    runs = coalesce_runs([1, 2, 3, 7, 8, 20], max_blocks=16)
    assert [(r.start_block, r.n_blocks) for r in runs] == [
        (1, 3), (7, 2), (20, 1),
    ]


def test_coalesce_respects_max_blocks():
    runs = coalesce_runs(list(range(10)), max_blocks=4)
    assert [r.n_blocks for r in runs] == [4, 4, 2]


def test_coalesce_cuts_on_group_boundary():
    runs = coalesce_runs([2, 3, 4, 5], max_blocks=16, boundary=lambda b: b // 4)
    assert [tuple(r.blocks) for r in runs] == [(2, 3), (4, 5)]


def test_coalesce_rejects_nonpositive_max():
    with pytest.raises(ValueError):
        coalesce_runs([1], max_blocks=0)


def test_threshold_policy_triggers_on_pressure():
    p = ThresholdDestage(threshold_blocks=4, batch_blocks=8)
    c = dirty_cache([1, 2, 3])
    assert not p.should_destage(c, idle=True)
    c.admit_write(4, full_block=True)
    assert p.should_destage(c, idle=False)


def test_idle_policy_destages_any_dirt_when_idle():
    p = IdleDestage(threshold_blocks=100, batch_blocks=8)
    c = dirty_cache([1])
    assert p.should_destage(c, idle=True)
    assert not p.should_destage(c, idle=False)  # below threshold backstop


def test_select_batches_oldest_runs():
    p = ThresholdDestage(threshold_blocks=1, batch_blocks=4)
    c = dirty_cache([10, 11, 12, 13, 14, 15])
    runs = p.select(c)
    assert [tuple(r.blocks) for r in runs] == [(10, 11, 12, 13)]


def test_mirror_policy_never_crosses_groups():
    p = MirrorCoalescingDestage(
        threshold_blocks=1, batch_blocks=16, group_of=lambda b: b // 3
    )
    c = dirty_cache([0, 1, 2, 3, 4, 5])
    runs = p.select(c)
    assert [tuple(r.blocks) for r in runs] == [(0, 1, 2), (3, 4, 5)]


def test_make_destage_policy_dispatch():
    assert isinstance(
        make_destage_policy(CacheConfig(destage="threshold")),
        ThresholdDestage,
    )
    assert isinstance(
        make_destage_policy(CacheConfig(destage="idle")), IdleDestage
    )
    p = make_destage_policy(
        CacheConfig(destage="mirror"), group_of=lambda b: b
    )
    assert isinstance(p, MirrorCoalescingDestage)
    with pytest.raises(ValueError):
        make_destage_policy(CacheConfig(destage="mirror"))


def test_config_validation():
    with pytest.raises(Exception):
        CacheConfig(mode="writearound")
    with pytest.raises(Exception):
        CacheConfig(policy="clock")
    with pytest.raises(Exception):
        CacheConfig(destage="eager")
    with pytest.raises(Exception):
        CacheConfig(capacity_blocks=0)
    cfg = CacheConfig(capacity_blocks=100, dirty_fraction=0.5)
    assert cfg.threshold_blocks == 50
    assert cfg.writeback


@pytest.mark.parametrize(
    "field,value",
    [
        ("capacity_blocks", float("nan")),
        ("capacity_blocks", 2.5),
        ("capacity_blocks", 64.0),
        ("destage_batch", float("nan")),
        ("destage_batch", 0.5),
        ("destage_batch", 8.0),
    ],
)
def test_config_rejects_non_integral_sizes(field, value):
    """A block count that is not an integer is a TypeError at
    construction, not a crash (or a silently fractional cache) later in
    ``build_cluster``."""
    with pytest.raises(TypeError):
        CacheConfig(**{field: value})
