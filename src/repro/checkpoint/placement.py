"""Checkpoint-region placement on a RAID-x layout.

Two placement services:

* :func:`region_blocks_for_disk_group` — logical blocks whose data lands
  on one n-disk group (the unit of stripe parallelism / pipelining in
  the paper's Fig. 3), for disk-group-targeted staggering;
* :func:`local_image_region` — logical blocks whose *images* all land on
  a chosen node's disk, realizing the paper's "each striped checkpointing
  file has its mirrored image in its local disk".
"""

from __future__ import annotations

from typing import List

from repro.errors import ConfigurationError
from repro.raid.raidx import RaidxLayout


def region_blocks_for_disk_group(
    layout: RaidxLayout, disk_group: int, n_blocks: int, start_row: int = 0
) -> List[int]:
    """The first ``n_blocks`` logical blocks striping over one disk group.

    Blocks are returned in address order; they are contiguous *within
    the group's* address slice (runs of n blocks every D blocks).
    """
    n, D = layout.n, layout.n_disks
    if not 0 <= disk_group < layout.k:
        raise ConfigurationError(
            f"disk group {disk_group} out of range for k={layout.k}"
        )
    out: List[int] = []
    row = start_row
    while len(out) < n_blocks:
        base = row * D + disk_group * n
        for j in range(n):
            if len(out) >= n_blocks:
                break
            b = base + j
            if b >= layout.data_blocks:
                raise ConfigurationError("region exceeds the data capacity")
            out.append(b)
        row += 1
    return out


def _image_residue_for_node(layout: RaidxLayout, node: int) -> int:
    """The mirror-group residue g mod n whose image disk sits on ``node``.

    Image disk of group g (within a disk group) is ``((g+1)(n-1)) mod n``;
    since gcd(n-1, n) = 1 there is exactly one residue class per node.
    """
    n = layout.n
    for g_mod in range(n):
        if ((g_mod + 1) * (n - 1)) % n == node % n:
            return g_mod
    raise AssertionError("unreachable: residues cover all nodes")


def local_image_region(
    layout: RaidxLayout,
    node: int,
    n_blocks: int,
    disk_group: int = 0,
) -> List[int]:
    """Blocks whose mirror images all land on ``node``'s disk in
    ``disk_group`` — the OSM local-mirror checkpoint placement.

    The region consists of whole mirror groups (n-1 blocks each) from the
    single residue class of mirror groups whose image disk is local to
    the node.  Note the *data* blocks still stripe across the group's n
    disks, so the striped-write bandwidth is preserved.
    """
    n = layout.n
    if not 0 <= node < n:
        raise ConfigurationError(f"node {node} out of range for n={n}")
    residue = _image_residue_for_node(layout, node)
    out: List[int] = []
    g = residue
    per_group = n - 1
    while len(out) < n_blocks:
        # Mirror group g of this disk group covers local indices
        # [g*(n-1), (g+1)*(n-1)).
        for j in range(per_group):
            if len(out) >= n_blocks:
                break
            ell = g * per_group + j
            b = layout._local_block(disk_group, ell)
            if b >= layout.data_blocks:
                raise ConfigurationError("region exceeds the data capacity")
            out.append(b)
        g += n  # next group of the same residue class
    # Validate the local-image invariant (cheap, and worth the guarantee).
    for b in out:
        image_disk = layout.mirror_slot(b)[1]
        if image_disk % n != node % n:
            raise AssertionError(
                f"placement bug: block {b} images on disk {image_disk}"
            )
    return out
