"""Golden digests of every bundled instance family.

Records, graph fingerprints and store cache keys are all functions of
the generated graphs, so a change that alters an instance -- even only
the order in which edges are inserted -- silently invalidates every
stored result and every baseline.  These SHA-256 digests pin the node
order and edge list of each planar family, each far family and the
Theorem 2 lower-bound construction at small sizes and fixed seeds
(the first 128 bits of each digest are kept).

A failure here means instances changed.  If that is intended, it is a
cache-invalidating change: say so in the change log and update the
digests below.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.graphs import (
    FAR_FAMILIES,
    PLANAR_FAMILIES,
    lower_bound_instance,
    make_far,
    make_planar,
)

GOLDEN = {
    "planar/apollonian/200/0": "f8f2a05724237c41ed8cb2c7580dfb5c",
    "planar/apollonian/200/1": "a34e3254efac315564ad6098e195d439",
    "planar/delaunay/200/0": "54e2d113f3ec75309b221b9606bc0bd7",
    "planar/delaunay/200/1": "6362d92e166df5b94ed75b1237bcb35d",
    "planar/grid/200/0": "2a62e62355d75a481e764f6754f849ce",
    "planar/grid/200/1": "2a62e62355d75a481e764f6754f849ce",
    "planar/outerplanar/200/0": "d4e833c8751fc44e122e33fcc99ad9dc",
    "planar/outerplanar/200/1": "48349575fae362f4ea7641b66a3f6ac1",
    "planar/planar-sparse/200/0": "a7e128ed424c900c8b49bb6b1800db3d",
    "planar/planar-sparse/200/1": "1e03341dc1435dcd63cc11161dea68af",
    "planar/tree/200/0": "f56a06e2673187fa7bc0ce20f38f33ca",
    "planar/tree/200/1": "93260dfdf79497dec3895532ccea40fc",
    "planar/tri-grid/200/0": "d23c404b27182250cd7ed1a79d7a7b65",
    "planar/tri-grid/200/1": "d23c404b27182250cd7ed1a79d7a7b65",
    "far/gnp/200/0": "6a652422586c86bb5cfe1193f08f94a9",
    "far/gnp/200/1": "6283484cf7e07cd5da77e097c895d188",
    "far/planar-plus/200/0": "3c836de4b0fb0e5358f8713094646435",
    "far/planar-plus/200/1": "bc4cb415282f8b5b87a6d725022fa7c5",
    "far/planted-k33/200/0": "35c7d818fab5d0faa4cc303b8ba5c0a3",
    "far/planted-k33/200/1": "26573a080bb3a12a2a04f1b7148238a4",
    "far/planted-k5/200/0": "a73695b992d5076a77971c280b345b32",
    "far/planted-k5/200/1": "8d07a748e2c7795970b9ebfd2ac504a2",
    "far/regular/200/0": "90e9a3ccda756ca463b672ba36ec53e6",
    "far/regular/200/1": "b87b00e980c6a0ee45dd23499ab5d066",
    "lower_bound/64/0": "5d4d7a08d9204e7b0d116802313e588f",
    "lower_bound/64/1": "a6ffbf357595e40961a47defdb117b7d",
    "lower_bound/256/0": "512109b167e89118d1e664f1b8bac56b",
    "lower_bound/256/1": "e4d32dc2d6560f0eda0326ad42ef4e97",
}


def digest(graph) -> str:
    payload = json.dumps(
        [list(graph.nodes()), [list(edge) for edge in graph.edges()]],
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:32]


def build(key: str):
    kind, *rest = key.split("/")
    if kind == "planar":
        family, n, seed = rest
        return make_planar(family, int(n), seed=int(seed))
    if kind == "far":
        family, n, seed = rest
        return make_far(family, int(n), seed=int(seed))[0]
    n, seed = rest
    return lower_bound_instance(int(n), seed=int(seed)).graph


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_instance_digest_is_pinned(key):
    assert digest(build(key)) == GOLDEN[key], key


def test_every_family_is_pinned():
    pinned = {tuple(key.split("/")[:2]) for key in GOLDEN}
    assert {("planar", f) for f in PLANAR_FAMILIES} <= pinned
    assert {("far", f) for f in FAR_FAMILIES} <= pinned
