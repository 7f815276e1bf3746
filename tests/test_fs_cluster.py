"""Integration tests for the semantic metadata cluster."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tuning import ServerReport
from repro.fs import (
    ClientError,
    FileSetRegistry,
    FileSystemClient,
    FSError,
    MetadataCluster,
    paths,
)
from repro.fs.locks import LockMode
from repro.fs.paths import PathError

ROOTS = {f"fs{i}": f"/projects/p{i}" for i in range(8)}


def make_cluster(servers=("a", "b", "c")) -> MetadataCluster:
    return MetadataCluster(list(servers), ROOTS)


# ----------------------------------------------------------------------
# FileSetRegistry
# ----------------------------------------------------------------------
def test_registry_resolution():
    reg = FileSetRegistry({"fsA": "/a", "fsAB": "/a/b", "fsC": "/c"})
    assert reg.fileset_of("/a/x") == "fsA"
    assert reg.fileset_of("/a/b/x") == "fsAB"  # deepest root wins
    assert reg.fileset_of("/c") == "fsC"
    with pytest.raises(FSError):
        reg.fileset_of("/elsewhere")


def test_registry_relative_paths():
    reg = FileSetRegistry({"fsA": "/a"})
    assert reg.relative("fsA", "/a") == "/"
    assert reg.relative("fsA", "/a/x/y") == "/x/y"
    with pytest.raises(FSError):
        reg.relative("fsA", "/b/x")


def test_registry_validation():
    with pytest.raises(FSError):
        FileSetRegistry({})
    with pytest.raises(FSError):
        FileSetRegistry({"a": "/r", "b": "/r"})


def _reference_fileset_of(roots, path):
    """The original resolver: scan every root, deepest first."""
    norm = paths.normalize(path)
    ordered = sorted(
        ((name, paths.normalize(root)) for name, root in roots.items()),
        key=lambda kv: -len(paths.components(kv[1])),
    )
    for name, root in ordered:
        if paths.is_ancestor(root, norm):
            return name
    raise FSError(f"{path!r} is outside every file set")


def _reference_relative(root, path):
    """The original ``relative``: compare component lists."""
    comps = paths.components(path)
    root_comps = paths.components(root)
    if comps[: len(root_comps)] != root_comps:
        raise FSError(f"{path!r} is not inside the file set")
    rest = comps[len(root_comps):]
    return paths.ROOT + "/".join(rest) if rest else paths.ROOT


def _outcome(fn, *args):
    """``fn(*args)``, or the class of the error it raised."""
    try:
        return fn(*args)
    except (FSError, PathError) as exc:
        return type(exc)


# Few, prefix-sharing names so that nesting and sibling prefixes such as
# "/a" vs "/ab" come up often.
_names = st.sampled_from(["a", "ab", "b", "a.b"])
_root_paths = st.lists(_names, max_size=3).map(lambda c: "/" + "/".join(c))
_roots = st.lists(_root_paths, min_size=1, max_size=8, unique=True)


@st.composite
def _query_paths(draw):
    """Well-formed paths with doubled and trailing slashes, or malformed
    ones that ``normalize`` rejects."""
    if draw(st.integers(0, 5)) == 0:
        return draw(st.sampled_from(
            ["", "a/b", "/a/../b", "/./a", "/a/\x00", "/ab/.."]
        ))
    comps = draw(st.lists(_names, max_size=5))
    seps = draw(st.lists(
        st.sampled_from(["/", "//"]), min_size=len(comps) + 1,
        max_size=len(comps) + 1,
    ))
    path = seps[0] + "".join(
        c + sep for c, sep in zip(comps, seps[1:])
    )
    return path if draw(st.booleans()) else path.rstrip("/") or "/"


@settings(max_examples=300, deadline=None)
@given(root_list=_roots, queries=st.lists(_query_paths(), min_size=1, max_size=6),
       data=st.data())
def test_registry_matches_linear_scan(root_list, queries, data):
    roots = {f"fs{i}": root for i, root in enumerate(root_list)}
    shuffled = dict(data.draw(st.permutations(list(roots.items()))))
    registries = [FileSetRegistry(roots), FileSetRegistry(shuffled)]
    for path in queries:
        expected = _outcome(_reference_fileset_of, roots, path)
        for registry in registries:
            assert _outcome(registry.fileset_of, path) == expected, path
        for name, root in roots.items():
            expected_rel = _outcome(_reference_relative, root, path)
            for registry in registries:
                got = _outcome(registry.relative, name, path)
                assert got == expected_rel, (name, path)


@pytest.mark.parametrize("n_roots", [8, 500])
def test_fileset_of_normalizes_once_per_call(monkeypatch, n_roots):
    """Resolution does O(depth) work: one ``normalize`` per call,
    whatever the number of roots."""
    roots = {f"fs{i}": f"/projects/p{i}" for i in range(n_roots)}
    roots["nested"] = "/projects/p1/deep/er"
    registry = FileSetRegistry(roots)
    calls = []
    real = paths.normalize
    monkeypatch.setattr(paths, "normalize", lambda p: calls.append(p) or real(p))
    queries = [
        "/projects/p0/x",
        "/projects/p1/deep/er/f",
        "/projects/p1/deep/f//",
        f"/projects/p{n_roots - 1}",
    ]
    expected = ["fs0", "nested", "fs1", f"fs{n_roots - 1}"]
    assert [registry.fileset_of(q) for q in queries] == expected
    with pytest.raises(FSError):
        registry.fileset_of("/elsewhere/x")
    assert len(calls) == len(queries) + 1


# ----------------------------------------------------------------------
# Cluster basics
# ----------------------------------------------------------------------
def test_client_operations_end_to_end():
    cluster = make_cluster()
    client = FileSystemClient(cluster)
    client.mkdir("/projects/p0/src")
    client.create("/projects/p0/src/main.py")
    assert client.exists("/projects/p0/src/main.py")
    assert client.readdir("/projects/p0/src") == ["main.py"]
    client.setattr("/projects/p0/src/main.py", size=100)
    assert client.stat("/projects/p0/src/main.py").size == 100
    client.rename("/projects/p0/src/main.py", "/projects/p0/src/app.py")
    client.unlink("/projects/p0/src/app.py")
    client.rmdir("/projects/p0/src")
    cluster.check_consistency()


def test_errors_surface_as_client_errors():
    cluster = make_cluster()
    client = FileSystemClient(cluster)
    with pytest.raises(ClientError):
        client.stat("/projects/p1/missing")
    with pytest.raises(ClientError):
        client.mkdir("/projects/p1/a/b")  # missing parent


def test_cross_fileset_rename_rejected_exdev():
    cluster = make_cluster()
    client = FileSystemClient(cluster)
    client.create("/projects/p0/file")
    with pytest.raises(ClientError, match="EXDEV"):
        client.rename("/projects/p0/file", "/projects/p1/file")


def test_locks_routed_to_owner():
    cluster = make_cluster()
    c1 = FileSystemClient(cluster, "c1")
    c2 = FileSystemClient(cluster, "c2")
    c1.create("/projects/p2/data")
    assert c1.lock("/projects/p2/data", exclusive=True) is True
    assert c2.lock("/projects/p2/data", exclusive=True) is False  # queued
    c1.unlock("/projects/p2/data")


def test_ownership_matches_placement():
    cluster = make_cluster()
    cluster.check_consistency()
    for fileset in cluster.registry.filesets:
        assert cluster.owner_of(fileset) == cluster.placement.locate(fileset)


# ----------------------------------------------------------------------
# Retune moves images without losing data
# ----------------------------------------------------------------------
def test_retune_preserves_all_files():
    cluster = make_cluster()
    client = FileSystemClient(cluster)
    files = []
    for i in range(8):
        path = f"/projects/p{i}/file{i}"
        client.create(path)
        files.append(path)
    # Force a big skew so something actually moves.
    hot = max(
        cluster.services,
        key=lambda s: len(cluster.services[s].owned_filesets()),
    )
    reports = [
        ServerReport(s, 1.0 if s == hot else 0.01, 100)
        for s in cluster.services
    ]
    moved = cluster.retune(reports)
    cluster.check_consistency()
    for path in files:
        assert client.exists(path), path
    assert cluster.ledger.reconfigurations >= 1
    assert moved >= 0


def test_retune_no_reports_no_moves():
    cluster = make_cluster()
    reports = [ServerReport(s, 0.0, 0) for s in cluster.services]
    assert cluster.retune(reports) == 0


# ----------------------------------------------------------------------
# Failure / membership
# ----------------------------------------------------------------------
def test_crash_recovers_from_last_flushed_image():
    cluster = make_cluster()
    client = FileSystemClient(cluster)
    client.create("/projects/p0/durable")
    cluster.checkpoint()                      # flushed to shared disk
    client.create("/projects/p0/volatile")    # NOT flushed
    victim = cluster.owner_of("fs0")
    cluster.fail_server(victim)
    cluster.check_consistency()
    assert client.exists("/projects/p0/durable")
    assert not client.exists("/projects/p0/volatile")  # lost with the crash


def test_graceful_decommission_loses_nothing():
    cluster = make_cluster()
    client = FileSystemClient(cluster)
    client.create("/projects/p3/kept")
    victim = cluster.owner_of("fs3")
    cluster.remove_server(victim)
    cluster.check_consistency()
    assert client.exists("/projects/p3/kept")
    assert victim not in cluster.services


def test_add_server_takes_ownership_share():
    cluster = make_cluster(servers=("a", "b"))
    cluster.add_server("c")
    cluster.check_consistency()
    assert "c" in cluster.services


def test_fail_unknown_server_rejected():
    cluster = make_cluster()
    with pytest.raises(FSError):
        cluster.fail_server("ghost")
    with pytest.raises(FSError):
        cluster.remove_server("ghost")
    with pytest.raises(FSError):
        cluster.add_server("a")


def test_operations_work_after_fail_and_add_cycle():
    cluster = make_cluster()
    client = FileSystemClient(cluster)
    client.create("/projects/p5/x")
    cluster.checkpoint()
    cluster.fail_server(cluster.owner_of("fs5"))
    cluster.add_server("fresh")
    cluster.check_consistency()
    assert client.exists("/projects/p5/x")
    client.create("/projects/p5/y")
    assert client.exists("/projects/p5/y")


# ----------------------------------------------------------------------
# Locks follow their file set to the new owner
# ----------------------------------------------------------------------
def test_unlock_after_transfer_succeeds():
    cluster = make_cluster()
    c1 = FileSystemClient(cluster, "c1")
    c2 = FileSystemClient(cluster, "c2")
    c1.create("/projects/p2/data")
    assert c1.lock("/projects/p2/data", exclusive=True) is True
    assert c2.lock("/projects/p2/data", exclusive=True) is False  # queued
    destination = next(
        s for s in sorted(cluster.services) if s != cluster.owner_of("fs2")
    )
    assert cluster.transfer_ownership("fs2", destination)
    c1.unlock("/projects/p2/data")  # the holder survived the move
    locks = cluster.services[destination].locks
    assert locks.holders("fs2:/data") == {"c2": LockMode.EXCLUSIVE}
    c2.unlock("/projects/p2/data")
    assert len(locks) == 0
    assert all(len(s.locks) == 0 for s in cluster.services.values())


def test_locks_survive_graceful_decommission():
    cluster = make_cluster()
    client = FileSystemClient(cluster, "c1")
    client.create("/projects/p3/data")
    client.lock("/projects/p3/data")
    cluster.remove_server(cluster.owner_of("fs3"))
    client.unlock("/projects/p3/data")
    assert cluster._drained_locks == {}


def test_crash_loses_locks():
    cluster = make_cluster()
    client = FileSystemClient(cluster, "c1")
    client.create("/projects/p4/data")
    cluster.checkpoint()
    client.lock("/projects/p4/data")
    cluster.fail_server(cluster.owner_of("fs4"))
    with pytest.raises(ClientError, match="holds no lock"):
        client.unlock("/projects/p4/data")
