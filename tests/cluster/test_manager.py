"""Explicit storage-manager servers (cdd_mode='server')."""

import hashlib
import json

import pytest

from repro.cluster.cluster import build_cluster
from repro.errors import ConfigurationError, DiskFailedError
from repro.obs import runtime as obs_runtime
from repro.units import KiB, MB
from repro.workloads.parallel_io import ParallelIOWorkload
from tests.cluster.equivalence_scenarios import _canon
from tests.conftest import run_proc, small_config

BS = 32 * KiB

#: (arch, op, slots) -> (elapsed, per-server mean_wait, per-server
#: served, span-stream sha256) of a traced 4-client 256 KiB parallel
#: I/O run.  Captured on the dispatcher-over-inbox server, before the
#: slot queue became the only queue; floats are exact hex.
SERVER_GOLDEN = {
    ("raidx", "read", 1): (
        "0x1.d612df61bb41cp-4",
        ("0x1.75fd3f688382bp-6", "0x1.6205844fea824p-6",
         "0x1.754aa7df6a2ddp-6", "0x1.7784696f7228dp-6"),
        (15, 15, 15, 15),
        "32f2f5dedb16ba4ee15304e3c3ff4445da8255fb5b32eaa8671f60e85908b537",
    ),
    ("raidx", "read", 4): (
        "0x1.ae5b156925f10p-4",
        ("0x1.047290795e57dp-10", "0x1.3a478aa928341p-10",
         "0x1.3f9629030f2a7p-10", "0x1.60033fb6894ecp-10"),
        (15, 15, 15, 15),
        "88b75f9750b3cc18da5c0311464d73d73618ee686f8008b6b77b8add4e152a6c",
    ),
    ("raidx", "read", 64): (
        "0x1.ae5b156925f10p-4",
        ("0x0.0p+0", "0x0.0p+0",
         "0x0.0p+0", "0x0.0p+0"),
        (15, 15, 15, 15),
        "b7625fb08dc990b0f64d6546a38f655728117d516cebcdee94bb0dfe7fa0b5bd",
    ),
    ("raidx", "write", 1): (
        "0x1.b87d222404a90p-3",
        ("0x1.562e38f440108p-5", "0x1.566256011145ep-5",
         "0x1.7f3bf96d48818p-5", "0x1.80a20dabb7a8bp-5"),
        (20, 21, 20, 20),
        "c45ee0fbb77a7e0be78fef069648c981ff9117d1d0013c5dc72fef054f9dcc83",
    ),
    ("raidx", "write", 4): (
        "0x1.37fe0fe58ebc4p-3",
        ("0x1.9cb0a3b847c17p-7", "0x1.d56f356ed810ep-7",
         "0x1.5fdc4018fb550p-7", "0x1.887003bcf5f09p-7"),
        (18, 18, 18, 19),
        "bac06a1b401f1060d01b3945e06a9abe89efdaaf3ba5b135a8fa87210ae6e162",
    ),
    ("raidx", "write", 64): (
        "0x1.9e8b5cf04192cp-4",
        ("0x0.0p+0", "0x0.0p+0",
         "0x0.0p+0", "0x0.0p+0"),
        (15, 15, 15, 15),
        "c87455e4a1453dfd021e5ab1c477698d339a106fbf2dd629c13c58ff07af1a76",
    ),
    ("raid10", "read", 1): (
        "0x1.ec105e29ac70cp-4",
        ("0x1.2b5be849ecfc2p-5", "0x1.7a192472fcb9ep-7",
         "0x1.4d4dd4f08249ep-5", "0x1.0f1278a3de8d6p-6"),
        (18, 18, 18, 18),
        "c08d3e9f51d9192ac3e778c365082419bcdf4985bbb87a0ad089ad21a2dd812d",
    ),
    ("raid10", "read", 4): (
        "0x1.cf877b652b120p-4",
        ("0x1.07a5e70e9ccf4p-7", "0x0.0p+0",
         "0x1.967c0077da4f5p-7", "0x0.0p+0"),
        (18, 18, 18, 18),
        "cdf145f5ba6bc046efcf1f9bd6396961cb162fc5f5b5afae8f5408598fec8108",
    ),
    ("raid10", "read", 64): (
        "0x1.cf877b652b120p-4",
        ("0x0.0p+0", "0x0.0p+0",
         "0x0.0p+0", "0x0.0p+0"),
        (18, 18, 18, 18),
        "3114123211b77e854d0989bf40ed48c902f571355c6fc72eee174780a299fcda",
    ),
    ("raid10", "write", 1): (
        "0x1.a991adabda418p-3",
        ("0x1.385c99a67f8dfp-5", "0x1.0dec4bc5e0679p-7",
         "0x1.5ec7586c4ecdfp-5", "0x1.184a1d0d2491dp-7"),
        (24, 24, 24, 24),
        "2a21d7c0e28712ca31f93adc4e9142f3d5d951533e974f13fdff91237585ad97",
    ),
    ("raid10", "write", 4): (
        "0x1.af71ed2c70f90p-3",
        ("0x1.e567546d86959p-8", "0x0.0p+0",
         "0x1.5628edfdc2610p-7", "0x0.0p+0"),
        (24, 24, 24, 24),
        "e042c87b37e28d0712d99e15a96f5d0640b9352fac6a259dc69b428afb0cb72a",
    ),
    ("raid10", "write", 64): (
        "0x1.af71ed2c70f90p-3",
        ("0x0.0p+0", "0x0.0p+0",
         "0x0.0p+0", "0x0.0p+0"),
        (24, 24, 24, 24),
        "2a74e5b57515e31616b24769cbc98cc20e0ee15f0baaedc92f4528dbdc23be49",
    ),
    ("raid5", "read", 1): (
        "0x1.cc68fe711084cp-4",
        ("0x1.85603f1569a38p-6", "0x1.cca4394b30ad1p-6",
         "0x1.4aab468e2fb98p-5", "0x1.f0fa3cd54e3b1p-6"),
        (34, 34, 34, 34),
        "4a8ce38f1829f1b0e722747b34c58a18207d1829bdd62dd882b08590f3ff827a",
    ),
    ("raid5", "read", 4): (
        "0x1.9d369d113ede0p-4",
        ("0x1.3ca5f1fe0283ep-8", "0x1.ba5c06a7f9028p-10",
         "0x1.29d67233caecbp-9", "0x1.8ec55192b7a88p-9"),
        (34, 34, 34, 34),
        "e5d8944da921b46ae8e47a56aa35322b85298f6029436236358dd68060112941",
    ),
    ("raid5", "read", 64): (
        "0x1.9d15cce1204a0p-4",
        ("0x0.0p+0", "0x0.0p+0",
         "0x0.0p+0", "0x0.0p+0"),
        (34, 34, 34, 34),
        "7734eecc75ddae486a49cc3b92fa4cffb6a14594fe8b71448697f20cacd3c60d",
    ),
    ("raid5", "write", 1): (
        "0x1.9fa23cb32bb88p-2",
        ("0x1.455664874dd50p-6", "0x1.608e88a877988p-6",
         "0x1.def94bcd00655p-6", "0x1.7e657d15eddb6p-6"),
        (56, 56, 56, 56),
        "4fdcf63d930f611dbac5927e640318b4a5360779a03e50c8297b31c6a2c6ce4b",
    ),
    ("raid5", "write", 4): (
        "0x1.7cb1bc541da5dp-2",
        ("0x1.80805cb470c4bp-9", "0x1.0c934d2f2053dp-10",
         "0x1.69a8f86376689p-10", "0x1.e438be7b4cba6p-10"),
        (56, 56, 56, 56),
        "20c2784e713dee623221b36903f1fbd636c03934b506e1f7fbb7d3732c6d9925",
    ),
    ("raid5", "write", 64): (
        "0x1.7888325282c35p-2",
        ("0x0.0p+0", "0x0.0p+0",
         "0x0.0p+0", "0x0.0p+0"),
        (56, 56, 56, 56),
        "eac42783e3bdf9ab0de01a9521273fc122385f5c0c28df0d84257c396abe3666",
    ),
}


def server_cluster(slots=8, arch="raid0"):
    return build_cluster(
        small_config(n=4),
        architecture=arch,
        cdd_mode="server",
        cdd_service_slots=slots,
    )


def test_bad_mode_rejected():
    with pytest.raises(ConfigurationError):
        build_cluster(small_config(n=4), cdd_mode="carrier-pigeon")


def test_bad_slots_rejected():
    with pytest.raises(ValueError):
        build_cluster(small_config(n=4), cdd_mode="server",
                      cdd_service_slots=0)


def test_server_mode_serves_remote_ops():
    c = server_cluster()

    def p():
        yield c.storage.submit(1, "write", 0, 2 * BS)
        yield c.storage.submit(2, "read", 0, 2 * BS)

    run_proc(c, p())
    served = sum(s.served for s in c.manager_servers)
    assert served > 0
    # Data actually reached the disks.
    assert sum(d.stats.writes for d in c.all_disks()) == 2
    assert sum(d.stats.reads for d in c.all_disks()) == 2


def test_server_mode_matches_inline_op_counts():
    counts = {}
    for mode in ("inline", "server"):
        c = build_cluster(
            small_config(n=4), architecture="raid10", cdd_mode=mode
        )

        def p(c=c):
            yield c.storage.submit(0, "write", 0, 4 * BS)
            yield c.storage.submit(1, "read", 0, 4 * BS)

        run_proc(c, p())
        counts[mode] = (
            sum(d.stats.reads for d in c.all_disks()),
            sum(d.stats.writes for d in c.all_disks()),
        )
    assert counts["inline"] == counts["server"]


def test_single_slot_serializes_service():
    c = server_cluster(slots=1)
    env = c.env
    # Two concurrent remote reads of different disks owned by node 0.
    # (n=4, k=1: node 0 owns only disk 0 — so hit disk 0 twice.)
    done = []

    def issuer(client):
        yield from c.cdds[client].block_io("read", 0, 0, BS)
        done.append(env.now)

    env.process(issuer(1))
    env.process(issuer(2))
    env.run()
    server = c.manager_servers[0]
    assert server.served == 2
    assert server.mean_wait() >= 0
    assert done[1] > done[0]


def test_server_queue_wait_grows_with_load():
    wide = server_cluster(slots=8)
    narrow = server_cluster(slots=1)

    def burst(c):
        r = ParallelIOWorkload(c, 4, op="read", size=512 * KiB).run()
        waits = [s.mean_wait() for s in c.manager_servers if s.served]
        return r.elapsed, max(waits, default=0.0)

    t_wide, w_wide = burst(wide)
    t_narrow, w_narrow = burst(narrow)
    assert w_narrow > w_wide
    assert t_narrow >= t_wide


def test_server_propagates_disk_failure():
    c = server_cluster()
    c.disk(0).fail()
    errors = []

    def p():
        try:
            yield from c.cdds[1].block_io("read", 0, 0, BS)
        except DiskFailedError as e:
            errors.append(e.disk_id)

    run_proc(c, p())
    assert errors == [0]


def test_server_mode_full_workload():
    c = server_cluster(arch="raidx")
    r = ParallelIOWorkload(c, 4, op="write", size=1 * MB).run()
    assert r.aggregate_bandwidth_mb_s > 0
    assert all(s.max_queue_seen >= 0 for s in c.manager_servers)


def _span_sha(tracer):
    """sha256 of a tracer's span stream in canonical (exact-hex) form."""
    spans = [
        [s.kind, s.track, s.start.hex(), s.end.hex(), s.trace,
         _canon(s.args or {})]
        for s in tracer.spans
    ]
    stream = json.dumps(spans, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(stream.encode()).hexdigest()


def _server_signature(arch, op, slots):
    with obs_runtime.tracing() as tracer:
        c = server_cluster(slots=slots, arch=arch)
        r = ParallelIOWorkload(c, 4, op=op, size=256 * KiB).run()
    servers = c.manager_servers
    return (
        r.elapsed.hex(),
        tuple(s.mean_wait().hex() for s in servers),
        tuple(s.served for s in servers),
        _span_sha(tracer),
    )


@pytest.mark.parametrize(
    "arch,op,slots", sorted(SERVER_GOLDEN),
    ids=[f"{a}-{o}-{s}" for a, o, s in sorted(SERVER_GOLDEN)],
)
def test_server_mode_matches_golden(arch, op, slots):
    assert _server_signature(arch, op, slots) == SERVER_GOLDEN[
        arch, op, slots
    ]


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_max_queue_seen_counts_requests_waiting_for_a_slot(n):
    # n remote reads of node 0's disk leave their clients at t=0 and
    # reach a 1-slot server while the first is still in service, so
    # all but that first wait for the slot.
    c = server_cluster(slots=1)

    def issuer(client):
        yield from c.cdds[client].block_io("read", 0, 0, BS)

    for i in range(n):
        c.env.process(issuer(1 + i % 3))
    c.env.run()
    server = c.manager_servers[0]
    assert server.served == n
    assert server.max_queue_seen == n - 1
    assert server.queue_length == 0


#: (slots, hops) -> (elapsed, node 0's mean_wait, span-stream sha256) of
#: the same-instant tie run below; floats are exact hex.  The manager
#: takes the CPU ahead of a local request issued one or more zero-delay
#: steps behind its arrival, and behind one issued at no step.
TIE_GOLDEN = {
    (1, 0): (
        "0x1.7d08fb6dab06bp-6", "0x1.74dd6f144ccf0p-8",
        "4a75b56ed40b1173504eb2a185a940953a7c62ac3062a003dc49651836c4a414",
    ),
    (1, 1): (
        "0x1.5d240f1a96cbdp-6", "0x1.a84e6842df78ap-10",
        "64c2989bbd079428c65f9f7d79d32c05ee48e3ea7454fa5c7dbee737f1c38882",
    ),
    (1, 2): (
        "0x1.5d240f1a96cbdp-6", "0x1.a84e6842df78ap-10",
        "64c2989bbd079428c65f9f7d79d32c05ee48e3ea7454fa5c7dbee737f1c38882",
    ),
    (2, 0): (
        "0x1.638195de2f284p-6", "0x0.0p+0",
        "4ddb5a452fa09ba482cec91c8efe69377a2a76b9de3f2ba22c0e28fccc084e2a",
    ),
    (2, 1): (
        "0x1.5d240f1a96cbdp-6", "0x0.0p+0",
        "21c42aee2eddd65d4fd49c719f7358221579ddd3c37a33b200b02a490989cbeb",
    ),
    (2, 2): (
        "0x1.5d240f1a96cbdp-6", "0x0.0p+0",
        "21c42aee2eddd65d4fd49c719f7358221579ddd3c37a33b200b02a490989cbeb",
    ),
}


def _tie_run(slots, hops=None, arrival=None):
    """Clients 1 and 2 each read one block of disk 0 at t=0; the two
    requests reach node 0's NIC at one instant.  With ``hops`` set,
    client 0 also reads a block of its own disk 0, issued at the
    instant ``arrival = (t_rx, t_a)`` client 1's request reaches node
    0's storage manager, ``hops`` zero-delay steps behind it.  The
    manager's work then races the local request for node 0's CPU.
    Returns (tracer, cluster, the local request's issue time)."""
    issued = []
    with obs_runtime.tracing() as tracer:
        c = server_cluster(slots=slots)
        env = c.env

        def local():
            t_rx, t_a = arrival
            # Wake at t_a (exactly: t_a - mid is exact by Sterbenz), and
            # after client 1's arrival, which was queued at t_rx < mid.
            mid = (t_rx + t_a) / 2
            yield env.timeout(mid)
            yield env.timeout(t_a - mid)
            for _ in range(hops):
                yield env.timeout(0)
            issued.append(env.now)
            yield c.storage.submit(0, "read", 8 * BS, BS)

        c.storage.submit(1, "read", 0, BS)
        c.storage.submit(2, "read", 4 * BS, BS)
        if hops is not None:
            env.process(local())
        env.run()
    return tracer, c, issued


def _first_manager_arrival(tracer):
    """(start, end) of the first protocol span on node 0's CPU: client
    1's request, which reaches the storage manager at its end."""
    return next(
        (s.start, s.end) for s in tracer.spans
        if s.kind == "cpu.proto" and s.track == "node0.cpu"
    )


@pytest.mark.parametrize(
    "slots,hops", sorted(TIE_GOLDEN),
    ids=[f"slots{s}-hops{h}" for s, h in sorted(TIE_GOLDEN)],
)
def test_same_instant_order_at_the_manager_matches_golden(slots, hops):
    probe, _, _ = _tie_run(slots)
    rx = [s.start for s in probe.spans if s.track == "node0.nic.rx"]
    assert len(rx) == 2 and rx[0] == rx[1]  # the remote requests tie
    arrival = _first_manager_arrival(probe)

    tracer, c, issued = _tie_run(slots, hops, arrival)
    # The local request ties with client 1's arrival at the manager.
    assert issued == [arrival[1]]
    assert _first_manager_arrival(tracer) == arrival
    server = c.manager_servers[0]
    assert server.served == 2
    signature = (c.env.now.hex(), server.mean_wait().hex(), _span_sha(tracer))
    assert signature == TIE_GOLDEN[slots, hops]
