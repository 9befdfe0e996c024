"""Golden digests of the tester's outputs on every bundled family.

Stage II's verdicts depend on more than the graph: the LR embedding's
rotation lists (including which entry each list starts at, since the
root's first tree edge fixes every corner label), the BFS parent
tie-break, the Euler-tour corner positions, the order in which non-tree
edges are enumerated (it fixes which RNG draw samples which edge) and
the witness the sampler reports.  These SHA-256 digests pin all of them
at small sizes and fixed seeds (the first 128 bits of each digest are
kept):

* ``tester/...``: the full :func:`test_planarity` verdict tuple;
* ``lr/...``: ``check_planarity(graph).embedding.to_dict()``, start
  entries included;
* ``mpx/...``: Stage II alone over an MPX partition, with exact
  violation counts, under both interlacement criteria;
* ``labels/...``: whole-graph corner intervals and the sampler's
  outcomes, witnesses included.

A failure here means a tester output changed.  Every record and every
benchmark baseline derived from a tester run changes with it; if that
is intended, say so in the change log and update the digests below.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from repro.baselines import mpx_partition
from repro.graphs import FAR_FAMILIES, PLANAR_FAMILIES, make_far, make_planar
from repro.planarity import check_planarity, identity_rotation
from repro.testers.labels import (
    corner_intervals,
    deterministic_bfs_tree,
    euler_tour_positions,
)
from repro.testers.planarity import (
    PlanarityTestConfig,
    stage2_over_partition,
)
from repro.testers.planarity import test_planarity as run_planarity
from repro.testers.stage2 import Stage2Config
from repro.testers.violations import sample_and_detect

GOLDEN = {
    "tester/planar/apollonian/200/0": "ce21b2c80bdac2e30c8e6e7b31941222",
    "lr/planar/apollonian/200/0": "7cde85fb286d3a8a7e84777b7bfd0b1f",
    "mpx/planar/apollonian/200/0": "1e628f36e43a6305d427f0b8a7927497",
    "labels/planar/apollonian/200/0": "d6f929035b6f31b6eb710cb32cf77680",
    "tester/planar/delaunay/200/0": "e323d13a6b5ac777e31127172a01b8d3",
    "lr/planar/delaunay/200/0": "3eac14628efd42c91e629d0ebb1c42ed",
    "mpx/planar/delaunay/200/0": "68af37fdf8bb73f498862710d8fd1106",
    "labels/planar/delaunay/200/0": "5c90a879f4f6794a8c8de3547149cd0c",
    "tester/planar/grid/200/0": "beb10843857a0cb9f25ba9374dbfd645",
    "lr/planar/grid/200/0": "38f12e60f9d047710497afc6a959964b",
    "mpx/planar/grid/200/0": "e3c3aa71268c14bd2e21d4344e0c905e",
    "labels/planar/grid/200/0": "ed921c169a0256d5878cf6eb072ebe2b",
    "tester/planar/outerplanar/200/0": "98e6e899fc92bc60a4df6513b7321f5d",
    "lr/planar/outerplanar/200/0": "9895cc693c04818a0cac888e5cf41683",
    "mpx/planar/outerplanar/200/0": "3713418cfb4abed495888c4259d7b244",
    "labels/planar/outerplanar/200/0": "b02db66aed896432c288bc9f0220d172",
    "tester/planar/planar-sparse/200/0": "1e2a6f145a202b664473dc209fc7a410",
    "lr/planar/planar-sparse/200/0": "8f7a14f35d9506db0d5f67a39ccc7143",
    "mpx/planar/planar-sparse/200/0": "906fa2c6eda11c973d86827a98c18599",
    "labels/planar/planar-sparse/200/0": "0300ce22c4d1d0f74a0630aa66fda537",
    "tester/planar/tree/200/0": "bcc399045211fc2e4f00beba2c527420",
    "lr/planar/tree/200/0": "0ec9a80cc7da4b8fba7e078d95bd9b94",
    "mpx/planar/tree/200/0": "1a8d01b2fdd79a37aede3c7ec75f0661",
    "labels/planar/tree/200/0": "a99ad1b2827fa0c4f9597f097e150213",
    "tester/planar/tri-grid/200/0": "cd818ee07037e75d610f9a94b1bfc7b4",
    "lr/planar/tri-grid/200/0": "d338623dc3f58d3cdf151edbf281081a",
    "mpx/planar/tri-grid/200/0": "4cdd5d230e410855fd3fc3e99b168611",
    "labels/planar/tri-grid/200/0": "ec2e2ec730b9fb086c2f7fd45ffe628a",
    "tester/far/gnp/200/0": "e551a242eec86bc4a620af8c607bbd15",
    "lr/far/gnp/200/0": "74234e98afe7498fb5daf1f36ac2d78a",
    "mpx/far/gnp/200/0": "84c84ec0c16053f6a95c0b60f6b73923",
    "labels/far/gnp/200/0": "5434d1f02d7b84637c317b4d8b96a1a1",
    "tester/far/planar-plus/200/0": "d929499da6421dbf028ec6adfb90dfaf",
    "lr/far/planar-plus/200/0": "74234e98afe7498fb5daf1f36ac2d78a",
    "mpx/far/planar-plus/200/0": "35518dc3355442d369ede95a21f2915d",
    "labels/far/planar-plus/200/0": "5d77e0ba403895a9e1997277889f87c5",
    "tester/far/planted-k33/200/0": "bb107f32945c60a210625aa9c3bb2662",
    "lr/far/planted-k33/200/0": "74234e98afe7498fb5daf1f36ac2d78a",
    "mpx/far/planted-k33/200/0": "5e57c86da4236aad8ed6adea8e6e2c1c",
    "labels/far/planted-k33/200/0": "89af74efb0f31d1fff7ccac8bfd5241f",
    "tester/far/planted-k5/200/0": "e125a17f344f59b3abcf45cb84c4614d",
    "lr/far/planted-k5/200/0": "74234e98afe7498fb5daf1f36ac2d78a",
    "mpx/far/planted-k5/200/0": "0288ba30cea1ea3ed3b8f63b2c56c015",
    "labels/far/planted-k5/200/0": "1acecced519d3d0b2e1c6ae83f4c0d0d",
    "tester/far/regular/200/0": "f4d7b0a9006cf762ba844bfe01b2156e",
    "lr/far/regular/200/0": "74234e98afe7498fb5daf1f36ac2d78a",
    "mpx/far/regular/200/0": "11a74f75ec7276ed29f9dd0bc602c96a",
    "labels/far/regular/200/0": "42954a07d0c613ac8c0df07e25c45815",
    "tester/chords/grid/200/0": "cffa4d62ff7ac2569c37296ae5176597",
    "lr/chords/grid/200/0": "74234e98afe7498fb5daf1f36ac2d78a",
    "mpx/chords/grid/200/0": "9f72d0e1aba2b0fa9c7693b9b466c983",
    "labels/chords/grid/200/0": "f4efb63f008b4be190609a36f8806619",
    "tester/chords/tri-grid/200/0": "5085829f41a738a45a3a4b0ffb509ae0",
    "lr/chords/tri-grid/200/0": "74234e98afe7498fb5daf1f36ac2d78a",
    "mpx/chords/tri-grid/200/0": "a30a3f38d623293ca4531c8d2fc0d0f1",
    "labels/chords/tri-grid/200/0": "f05c45875e682775403b1ae6836879b6",
    "tester/planar/apollonian/200/1": "5591d20ed6c0fd2b2e32431137875b34",
    "lr/planar/apollonian/200/1": "836b1b3a632dc8165d671bff66af3c12",
    "tester/planar/delaunay/200/1": "d22ab53ba0154be3e74b4a8896027345",
    "lr/planar/delaunay/200/1": "479a6a13178dd34dacab2698b3879a1f",
    "tester/planar/grid/200/1": "2c5ccb66c266fa715889c289b52fcad7",
    "lr/planar/grid/200/1": "38f12e60f9d047710497afc6a959964b",
    "tester/planar/outerplanar/200/1": "e3feb7f8cc41d12c7b678622f345c5f0",
    "lr/planar/outerplanar/200/1": "0d90a1f20178d9066c0b8e36302d163f",
    "tester/planar/planar-sparse/200/1": "49384c8258f41649c1b36a411e89a653",
    "lr/planar/planar-sparse/200/1": "e7207e74c6e7758da03d4d15a3f8ddbe",
    "tester/planar/tree/200/1": "72aaacb948fcd3bad3e6d48950ebf2f4",
    "lr/planar/tree/200/1": "12fe9f7c39f2e8ffab9f598837c6db0e",
    "tester/planar/tri-grid/200/1": "8e42d402c5c8d0f9a69afcbe7ba40759",
    "lr/planar/tri-grid/200/1": "d338623dc3f58d3cdf151edbf281081a",
    "tester/far/gnp/200/1": "9e773b2ae422924df8d133ea5c8e0b55",
    "lr/far/gnp/200/1": "74234e98afe7498fb5daf1f36ac2d78a",
    "tester/far/planar-plus/200/1": "0d929491a38b3fff3070559c43b5dfd4",
    "lr/far/planar-plus/200/1": "74234e98afe7498fb5daf1f36ac2d78a",
    "tester/far/planted-k33/200/1": "5e1461191dc15aa81f3eb5df52130865",
    "lr/far/planted-k33/200/1": "74234e98afe7498fb5daf1f36ac2d78a",
    "tester/far/planted-k5/200/1": "342e44c71fa2df390c492963fea7a81b",
    "lr/far/planted-k5/200/1": "74234e98afe7498fb5daf1f36ac2d78a",
    "tester/far/regular/200/1": "f4d7b0a9006cf762ba844bfe01b2156e",
    "lr/far/regular/200/1": "74234e98afe7498fb5daf1f36ac2d78a",
    "tester/chords/grid/200/1": "dc2db3d1a344e45ece2a31ccd51bc70b",
    "lr/chords/grid/200/1": "74234e98afe7498fb5daf1f36ac2d78a",
    "tester/chords/tri-grid/200/1": "397074dd168e0e29d1acf566781f8e16",
    "lr/chords/tri-grid/200/1": "74234e98afe7498fb5daf1f36ac2d78a",
    "tester/planar/apollonian/200/2": "fe724aeb664d8c0567238eadfb05fa39",
    "lr/planar/apollonian/200/2": "e815f5136dc74dd1a0ce3f848fa5ce27",
    "tester/planar/delaunay/200/2": "0de68c4849069b380801a80ba49530d1",
    "lr/planar/delaunay/200/2": "441e68f62158a4db17a857b935b54b9d",
    "tester/planar/grid/200/2": "dfb932d47c56b3097d025bd3018c6796",
    "lr/planar/grid/200/2": "38f12e60f9d047710497afc6a959964b",
    "tester/planar/outerplanar/200/2": "a19aff9ee04d36c580c91a46d4d5cf8e",
    "lr/planar/outerplanar/200/2": "4e7c045b947da42d0495c460f88f64b0",
    "tester/planar/planar-sparse/200/2": "480b0034136e7ce2b4429c215143fa3c",
    "lr/planar/planar-sparse/200/2": "35c6dc93dd61308d947526f726c5366c",
    "tester/planar/tree/200/2": "20edb4d9153e2bcce0803ad8fb0c6d27",
    "lr/planar/tree/200/2": "9dc117c09ac840b60060cee4d38bb6bd",
    "tester/planar/tri-grid/200/2": "1d1b58b0ca5f638347f2200a804cb815",
    "lr/planar/tri-grid/200/2": "d338623dc3f58d3cdf151edbf281081a",
    "tester/far/gnp/200/2": "2d23c387970ef3f7251881fa40b5e88c",
    "lr/far/gnp/200/2": "74234e98afe7498fb5daf1f36ac2d78a",
    "tester/far/planar-plus/200/2": "bf9f97358c0542b97f209016c7b5a610",
    "lr/far/planar-plus/200/2": "74234e98afe7498fb5daf1f36ac2d78a",
    "tester/far/planted-k33/200/2": "f7204afbfa8968cf44415e87c3e1b9c9",
    "lr/far/planted-k33/200/2": "74234e98afe7498fb5daf1f36ac2d78a",
    "tester/far/planted-k5/200/2": "9f204377b90294dc2c1ede251150df76",
    "lr/far/planted-k5/200/2": "74234e98afe7498fb5daf1f36ac2d78a",
    "tester/far/regular/200/2": "f4d7b0a9006cf762ba844bfe01b2156e",
    "lr/far/regular/200/2": "74234e98afe7498fb5daf1f36ac2d78a",
    "tester/chords/grid/200/2": "8f6ab0a89295dc442ad44955c62d9016",
    "lr/chords/grid/200/2": "74234e98afe7498fb5daf1f36ac2d78a",
    "tester/chords/tri-grid/200/2": "1744b6fe0d0601839ee957985050779f",
    "lr/chords/tri-grid/200/2": "74234e98afe7498fb5daf1f36ac2d78a",
    "tester/planar/delaunay/2000/0": "794bd6b6f0c6d661e655dfbd13d5fbdf",
    "lr/planar/delaunay/2000/0": "56d4bbb4c18e699b959de08857101df9",
    "tester/planar/apollonian/2000/0": "8af5c1d733399539973a2cd0515bffe1",
    "lr/planar/apollonian/2000/0": "ccd5f141ef781f88a0c7af5704623bf2",
}


def _verdicts(verdicts):
    return [
        (
            verdict.pid,
            verdict.accepted,
            verdict.reason,
            verdict.n,
            verdict.m,
            verdict.non_tree_edges,
            verdict.bfs_depth,
            verdict.embedding_planar,
            verdict.sampled,
            verdict.violating_exact,
            verdict.rounds,
        )
        for verdict in verdicts
    ]


def _canonical(result):
    return (
        result.accepted,
        result.rejected_stage,
        result.rejecting_parts,
        result.stage1_rounds,
        result.stage2_rounds,
        _verdicts(result.part_verdicts or []),
    )


def _instance(kind, family, n, seed):
    if kind == "planar":
        return make_planar(family, n, seed=seed), 0.1
    if kind == "chords":
        # Sparse non-planar parts: a planar family plus a few random
        # chords, so parts pass the density check and reach the
        # fallback rotation and the sampler.
        graph = make_planar(family, n, seed=seed)
        rng = random.Random(seed)
        nodes = list(graph)
        target = graph.number_of_edges() + 6
        while graph.number_of_edges() < target:
            u, v = rng.sample(nodes, 2)
            graph.add_edge(u, v)
        return graph, 0.1
    graph, certified = make_far(family, n, seed=seed)
    return graph, min(0.3, max(0.05, certified * 0.9))


def _tester(kind, family, n, seed):
    graph, epsilon = _instance(kind, family, n, seed)
    result = run_planarity(
        graph, seed=seed, config=PlanarityTestConfig(epsilon=epsilon)
    )
    return _canonical(result)


def _lr(kind, family, n, seed):
    graph, _epsilon = _instance(kind, family, n, seed)
    result = check_planarity(graph)
    if not result.is_planar:
        return None
    return list(result.embedding.to_dict().items())


def _mpx(kind, family, n, seed):
    graph, epsilon = _instance(kind, family, n, seed)
    partition = mpx_partition(graph, beta=epsilon / 2, seed=seed).partition
    out = []
    for criterion in ("corner", "preorder"):
        config = Stage2Config(
            epsilon=epsilon,
            criterion=criterion,
            collect_exact_violations=True,
        )
        verdicts, rejecting, rounds = stage2_over_partition(
            graph, partition, config, seed=seed
        )
        out.append((_verdicts(verdicts), rejecting, rounds))
    return out


def _labels(kind, family, n, seed):
    graph, _epsilon = _instance(kind, family, n, seed)
    lr = check_planarity(graph)
    rotation = lr.embedding if lr.is_planar else identity_rotation(graph)
    parents, _depths = deterministic_bfs_tree(graph, 0)
    positions, total = euler_tour_positions(graph, 0, rotation, parents)
    full = corner_intervals(graph, parents, positions)
    intervals = [(a, b) for a, b, _u, _v in full]
    outcomes = []
    for draw in range(3):
        outcome = sample_and_detect(
            intervals, 4, random.Random(draw), universe=total
        )
        outcomes.append(
            (
                outcome.detected,
                outcome.sample_target,
                outcome.sampled,
                outcome.truncated,
                outcome.witness,
            )
        )
    return total, full, outcomes


COMPUTE = {"tester": _tester, "lr": _lr, "mpx": _mpx, "labels": _labels}


def _keys():
    keys = []
    for seed in (0, 1, 2):
        for family in sorted(PLANAR_FAMILIES):
            keys.append(("planar", family, 200, seed))
        for family in sorted(FAR_FAMILIES):
            keys.append(("far", family, 200, seed))
        for family in ("grid", "tri-grid"):
            keys.append(("chords", family, 200, seed))
    keys.append(("planar", "delaunay", 2000, 0))
    keys.append(("planar", "apollonian", 2000, 0))
    out = []
    for kind, family, n, seed in keys:
        for what in ("tester", "lr"):
            out.append(f"{what}/{kind}/{family}/{n}/{seed}")
        if n == 200 and seed == 0:
            for what in ("mpx", "labels"):
                out.append(f"{what}/{kind}/{family}/{n}/{seed}")
    return out


def digest(key: str) -> str:
    what, kind, family, n, seed = key.split("/")
    value = COMPUTE[what](kind, family, int(n), int(seed))
    payload = json.dumps(value, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:32]


def test_golden_covers_every_key():
    assert sorted(GOLDEN) == sorted(_keys())


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_output_digest(key):
    assert digest(key) == GOLDEN[key], key


def test_digests_see_rotation_starts(monkeypatch):
    """Rotating one rotation list by one place must change the digests."""
    import repro.planarity.lr_planarity as lr

    inner = lr.lr_rotations

    def rotated(adj):
        rotations = inner(adj)
        if rotations is not None and rotations[0]:
            rotations[0] = rotations[0][1:] + rotations[0][:1]
        return rotations

    monkeypatch.setattr(lr, "lr_rotations", rotated)
    for key in ("lr/planar/delaunay/200/0", "labels/planar/grid/200/0"):
        assert digest(key) != GOLDEN[key], key


if __name__ == "__main__":  # print the table above from the current code
    for key in _keys():
        print(f'    "{key}": "{digest(key)}",')
