"""RAID-x: orthogonal striping and mirroring (OSM) — the paper's §2.

Geometry for an ``n × k`` array (n nodes = stripe width, k disks per
node = pipeline depth, D = nk disks total):

* **Data** stripes RAID-0-style across *all* D disks in the order
  D0, D1, …, D(D-1): block ``i`` → disk ``i mod D``, data row ``i // D``
  (top half of every disk), exactly as in the paper's Fig. 3.
* **Mirroring** is confined to each *disk group* of n disks (disks
  ``[cn, (c+1)n)`` — one disk per node, the unit of stripe parallelism).
  Within group ``c``, the group's data blocks in address order get local
  indices ℓ = 0, 1, 2, …; each run of ``n-1`` consecutive indices forms
  a **mirror group** whose images are *clustered* — stored as one long
  (n-1)-block sequential extent — on the single image disk

      image_disk(g) = c·n + ((g+1)·(n-1)) mod n

  in the bottom half of the disk.  Since ``gcd(n-1, n) = 1`` the image
  disk cycles through all n disks of the group (load balance), and the
  congruence ``p ≡ n-1 (mod n)`` is unsatisfiable for in-group positions
  ``p ≤ n-2``, so **no image ever shares a disk with its data block**
  (orthogonality — verified by property tests).

Consequences reproduced from the paper:

* the images of one n-block stripe group land on exactly two disks;
* a full-stripe write issues n parallel foreground block writes plus
  two long background image writes — no read-modify-write ever;
* one disk failure per disk group is survivable (``k`` failures total
  for an n×k array — the paper's "up to 3 failures in 3 stripe groups"
  for the 4×3 configuration).
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, List

from repro.errors import ConfigurationError
from repro.raid.layout import Layout, Placement


class RaidxLayout(Layout):
    """Orthogonal striping and mirroring over an n × k disk array."""

    name = "raidx"

    def __init__(
        self,
        n_disks: int,
        block_size: int,
        disk_capacity: int,
        stripe_width: int | None = None,
    ):
        super().__init__(n_disks, block_size, disk_capacity, stripe_width)
        self.n = self.stripe_width
        self.k = n_disks // self.n
        if self.n < 3:
            raise ConfigurationError(
                "RAID-x needs stripe width >= 3 (n-1 >= 2 blocks per "
                "mirror group)"
            )
        self._data_rows = self._fit_data_rows()
        #: Mirror groups per disk group; only the last can be truncated.
        self._groups_per_disk_group = (
            self._data_rows * self.n + self.n - 2
        ) // (self.n - 1)

    # -- capacity ----------------------------------------------------------
    def _mirror_rows_needed(self, data_rows: int) -> int:
        """Image rows a disk must hold when the data region has
        ``data_rows`` rows.

        Each run of ``n`` mirror groups (``n(n-1)`` local indices) puts
        one ``(n-1)``-row extent on every disk of the group, so a disk
        group's ``data_rows·n`` local indices span ``⌈data_rows/(n-1)⌉``
        runs.  The last run holds at least ``n`` indices (a multiple of
        ``n``), so some disk's top extent is full: the region needs every
        run's ``n-1`` rows — slightly *more* than ``data_rows``.
        """
        extent = self.n - 1
        return -(-data_rows // extent) * extent

    def _fit_data_rows(self) -> int:
        """Largest data region whose images still fit below the disk end.

        An even split (``rows // 2``) overcommits: the image-row skew
        (see :meth:`_mirror_rows_needed`) pushes the last few images up
        to ``n-2`` rows past half the disk, which would address past the
        end of the physical disk for tail blocks.
        """
        d = self.rows // 2
        while d > 0 and self._mirror_rows_needed(d) > self.rows - d:
            d -= 1
        return d

    @property
    def data_rows(self) -> int:
        return self._data_rows

    @cached_property
    def data_blocks(self) -> int:
        return self.data_rows * self.n_disks

    @property
    def mirror_base(self) -> int:
        """Byte offset where the clustered-image region starts."""
        return self.data_rows * self.block_size

    # data_location: the Layout base class's table-cached striping.

    # -- mirror placement ----------------------------------------------------
    def _local_block(self, c: int, ell: int) -> int:
        """The data block with local index ``ell`` in disk group ``c``."""
        q, r = divmod(ell, self.n)
        return q * self.n_disks + c * self.n + r

    def mirror_slot(self, block: int) -> tuple[int, int, int, int]:
        """``(group_id, image_disk, extent_offset, pos)`` of ``block``.

        The OSM formulas in O(1): local index ℓ falls in mirror group
        ``g = ℓ // (n-1)`` of disk group ``c``, whose clustered extent
        starts at image row ``(g // n)·(n-1)`` of disk ``c·n + ((g+1)·
        (n-1)) mod n``; the block's image is ``pos = ℓ mod (n-1)`` blocks
        into it.
        """
        self.check_block(block)
        n = self.n
        q, disk = divmod(block, self.n_disks)
        c, r = divmod(disk, n)
        g, pos = divmod(q * n + r, n - 1)
        return (
            c * self._groups_per_disk_group + g,
            c * n + (g + 1) * (n - 1) % n,
            (self._data_rows + g // n * (n - 1)) * self.block_size,
            pos,
        )

    def redundancy_locations(self, block: int) -> List[Placement]:
        """Image placement of ``block``."""
        _g, disk, offset, pos = self.mirror_slot(block)
        return [Placement(disk, offset + pos * self.block_size)]

    # -- stripes -------------------------------------------------------------
    def stripe_of(self, block: int) -> int:
        self.check_block(block)
        return block // self.n

    def stripe_blocks(self, stripe: int) -> List[int]:
        start = stripe * self.n
        return [b for b in range(start, start + self.n) if b < self.data_blocks]

    def stripe_image_disks(self, stripe: int) -> List[int]:
        """The (at most two) disks carrying the stripe group's images."""
        disks = []
        for b in self.stripe_blocks(stripe):
            d = self.mirror_slot(b)[1]
            if d not in disks:
                disks.append(d)
        return disks

    # -- fault model -----------------------------------------------------
    def tolerates(self, failed: Iterable[int]) -> bool:
        """Survivable iff no disk group has two failed disks.

        Mirroring is confined to disk groups, and within a group every
        ordered disk pair (data, image) is realized by some mirror group,
        so two failures in one group always lose data while failures in
        distinct groups never conflict.
        """
        failed = set(failed)
        if any(not 0 <= d < self.n_disks for d in failed):
            return False
        per_group: dict[int, int] = {}
        for d in failed:
            c = d // self.n
            per_group[c] = per_group.get(c, 0) + 1
            if per_group[c] > 1:
                return False
        return True

    def max_fault_coverage(self) -> int:
        return self.k
