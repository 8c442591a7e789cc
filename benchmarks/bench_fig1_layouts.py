"""F1 — Figure 1: OSM vs chained-declustering disk mirroring maps.

Regenerates both 4-disk placement diagrams and asserts the placements
the figure shows explicitly.
"""

from conftest import emit, run_once

from repro.bench.experiments import fig1_layout_maps
from repro.raid import make_layout


def test_fig1_layout_maps(benchmark):
    text = run_once(benchmark, fig1_layout_maps)
    emit("Figure 1 — disk mirroring schemes (4 disks)", text)

    raidx = make_layout(
        "raidx", n_disks=4, block_size=1, disk_capacity=8, stripe_width=4
    )
    # Fig. 1a: images of (B0,B1,B2) clustered on Disk 3, next group on D2.
    slots = [raidx.mirror_slot(b) for b in range(3)]
    assert len({s[0] for s in slots}) == 1
    assert [(s[1], s[3]) for s in slots] == [(3, 0), (3, 1), (3, 2)]
    assert raidx.mirror_slot(3)[1] == 2
    # Images of a 4-block stripe land on exactly two disks.
    assert len(raidx.stripe_image_disks(0)) == 2

    chained = make_layout(
        "chained", n_disks=4, block_size=1, disk_capacity=8
    )
    # Fig. 1b: skewed mirroring — disk d's blocks mirror onto disk d+1.
    for b in range(8):
        data = chained.data_location(b)
        mirror = chained.redundancy_locations(b)[0]
        assert mirror.disk == (data.disk + 1) % 4
