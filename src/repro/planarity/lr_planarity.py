"""Left-right planarity test with embedding extraction (from scratch).

This implements the de Fraysseix-Rosenstiehl left-right criterion in the
formulation of Brandes ("The left-right planarity test"), the same
algorithmic skeleton behind Boyer-Myrvold-class linear-time testers:

1. *Orientation phase*: a DFS orients the graph, computing ``height``,
   ``lowpt``, ``lowpt2`` and a ``nesting_depth`` ordering key per edge.
2. *Testing phase*: a second DFS over adjacency lists sorted by nesting
   depth maintains a stack of conflict pairs of back-edge intervals;
   an unresolvable conflict certifies non-planarity.
3. *Embedding phase*: the recorded ``ref``/``side`` relations assign each
   back edge to the left or right of its fundamental cycle, from which a
   clockwise rotation system is assembled.

In this reproduction the algorithm plays the role of the
Ghaffari-Haeupler distributed planar-embedding subroutine of paper
Section 2.2.2 (see DESIGN.md, substitution 1): it produces the
combinatorial embedding for each (planar) part, while the *distributed*
round cost of the GH algorithm is charged analytically by the Stage II
driver.

The core, :func:`lr_rotations`, runs on int adjacency lists: nodes are
``0..n-1``, oriented edges are ids ``0..m-1`` in orientation order, and
every per-edge table (``lowpt``, ``lowpt2``, ``nesting_depth``, ``ref``,
``side``, ``lowpt_edge``, ``stack_bottom``) is a list indexed by edge
id.  A conflict pair is a 4-slot list ``[L.low, L.high, R.low, R.high]``
with ``-1`` for a missing edge.  :func:`check_planarity` relabels a
networkx graph onto that core and wraps the result as a
:class:`RotationSystem`.

Each node's rotation starts at a fixed entry: the parent's half-edge for
a non-root node, the first outgoing edge in nesting order otherwise.
Stage II starts the root's Euler tour at the first tree edge after that
entry, so the start is part of the output contract, not an accident of
the representation.

All DFS phases are iterative, so graphs with deep DFS trees (paths,
grids) do not hit Python's recursion limit.

Implementation correspondence note: the phase structure and the conflict
pair bookkeeping follow Brandes' published pseudocode, which is also the
basis of networkx's checker -- networkx is used in the test-suite as an
*oracle* only; this module shares no code with it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import networkx as nx

from ..errors import GraphInputError
from .rotation import RotationSystem

_NONE = -1


@dataclass
class PlanarityResult:
    """Outcome of :func:`check_planarity`.

    Attributes:
        is_planar: verdict.
        embedding: a clockwise :class:`RotationSystem` when planar,
            otherwise ``None``.
    """

    is_planar: bool
    embedding: Optional[RotationSystem] = None

    def __bool__(self) -> bool:
        return self.is_planar


def lr_rotations(adj: Sequence[Sequence[int]]) -> Optional[List[List[int]]]:
    """LR planarity test on int adjacency lists.

    *adj[v]* lists the neighbors of node ``v`` (``0 <= v < n``) of a
    simple undirected graph; the iteration order of nodes and rows
    decides the DFS and therefore the embedding.  Returns ``None`` when
    the graph is not planar, else one clockwise rotation list per node
    starting at its first entry (see the module docstring).
    """
    n = len(adj)
    m = sum(map(len, adj)) // 2
    if n > 2 and m > 3 * n - 6:
        return None

    etail = [0] * m
    ehead = [0] * m
    lowpt = [0] * m
    lowpt2 = [0] * m
    nesting = [0] * m
    height = [_NONE] * n
    parent_edge = [_NONE] * n
    out: List[List[int]] = [[] for _ in range(n)]
    roots: List[int] = []

    # -- phase 1: orientation --------------------------------------------------
    ind = [0] * n
    resume = [_NONE] * n  # tree edge whose subtree just completed
    count = 0
    for root in range(n):
        if height[root] != _NONE:
            continue
        height[root] = 0
        roots.append(root)
        stack = [root]
        while stack:
            v = stack.pop()
            e = parent_edge[v]
            parent = etail[e] if e != _NONE else _NONE
            row = adj[v]
            hv = height[v]
            i = ind[v]
            descended = False
            while i < len(row):
                vw = resume[v]
                if vw != _NONE:
                    resume[v] = _NONE
                else:
                    w = row[i]
                    hw = height[w]
                    if hw != _NONE and (hw > hv or w == parent):
                        i += 1  # oriented from w already
                        continue
                    vw = count
                    count += 1
                    etail[vw] = v
                    ehead[vw] = w
                    out[v].append(vw)
                    lowpt[vw] = hv
                    lowpt2[vw] = hv
                    if hw == _NONE:  # tree edge: descend
                        parent_edge[w] = vw
                        height[w] = hv + 1
                        ind[v] = i
                        resume[v] = vw
                        stack.append(v)
                        stack.append(w)
                        descended = True
                        break
                    lowpt[vw] = hw  # back edge
                # postprocessing of vw (a back edge now, or a tree edge
                # after its subtree has completed)
                low = lowpt[vw]
                nesting[vw] = 2 * low + (1 if lowpt2[vw] < hv else 0)
                if e != _NONE:
                    if low < lowpt[e]:
                        lowpt2[e] = min(lowpt[e], lowpt2[vw])
                        lowpt[e] = low
                    elif low > lowpt[e]:
                        lowpt2[e] = min(lowpt2[e], low)
                    else:
                        lowpt2[e] = min(lowpt2[e], lowpt2[vw])
                i += 1
            if not descended:
                ind[v] = i

    # -- phase 2: testing --------------------------------------------------------
    ordered = [sorted(edges, key=nesting.__getitem__) for edges in out]
    # One spare slot: the pseudocode may write ref of an absent edge
    # (index -1), which is never read back.
    ref = [_NONE] * (m + 1)
    side = [1] * m
    lowpt_edge = [_NONE] * m
    stack_bottom: List[Optional[list]] = [None] * m
    conflicts: List[list] = []

    def conflicting(low: int, high: int, b: int) -> bool:
        return (low != _NONE or high != _NONE) and lowpt[high] > lowpt[b]

    def add_constraints(ei: int, e: int) -> bool:
        p = [_NONE, _NONE, _NONE, _NONE]
        # merge return edges of e_i into P.R
        while True:
            q = conflicts.pop()
            if q[0] != _NONE or q[1] != _NONE:
                q[0], q[1], q[2], q[3] = q[2], q[3], q[0], q[1]
            if q[0] != _NONE or q[1] != _NONE:
                return False  # non-planar
            if lowpt[q[2]] > lowpt[e]:  # merge intervals
                if p[2] == _NONE and p[3] == _NONE:
                    p[3] = q[3]
                else:
                    ref[p[2]] = q[3]
                p[2] = q[2]
            else:  # align
                ref[q[2]] = lowpt_edge[e]
            top = conflicts[-1] if conflicts else None
            if top is stack_bottom[ei]:
                break
        # merge conflicting return edges of e_1..e_{i-1} into P.L
        while conflicts:
            q = conflicts[-1]
            if not (
                conflicting(q[0], q[1], ei) or conflicting(q[2], q[3], ei)
            ):
                break
            conflicts.pop()
            if conflicting(q[2], q[3], ei):
                q[0], q[1], q[2], q[3] = q[2], q[3], q[0], q[1]
            if conflicting(q[2], q[3], ei):
                return False  # non-planar
            # merge interval below lowpt(e_i) into P.R
            ref[p[2]] = q[3]
            if q[2] != _NONE:
                p[2] = q[2]
            if p[0] == _NONE and p[1] == _NONE:
                p[1] = q[1]
            else:
                ref[p[0]] = q[1]
            p[0] = q[0]
        if p != [_NONE, _NONE, _NONE, _NONE]:
            conflicts.append(p)
        return True

    def remove_back_edges(e: int) -> None:
        u = etail[e]
        hu = height[u]
        # trim back edges ending at parent u: drop entire conflict pairs
        # whose lowest return edge ends there
        while conflicts:
            q = conflicts[-1]
            if q[0] == _NONE and q[1] == _NONE:
                lowest = lowpt[q[2]]
            elif q[2] == _NONE and q[3] == _NONE:
                lowest = lowpt[q[0]]
            else:
                lowest = min(lowpt[q[0]], lowpt[q[2]])
            if lowest != hu:
                break
            conflicts.pop()
            if q[0] != _NONE:
                side[q[0]] = -1
        if conflicts:  # one more conflict pair to consider
            q = conflicts[-1]
            # trim left interval
            while q[1] != _NONE and ehead[q[1]] == u:
                q[1] = ref[q[1]]
            if q[1] == _NONE and q[0] != _NONE:
                ref[q[0]] = q[2]
                side[q[0]] = -1
                q[0] = _NONE
            # trim right interval
            while q[3] != _NONE and ehead[q[3]] == u:
                q[3] = ref[q[3]]
            if q[3] == _NONE and q[2] != _NONE:
                ref[q[2]] = q[0]
                side[q[2]] = -1
                q[2] = _NONE
        # side of e is the side of a highest return edge
        if lowpt[e] < hu:  # e has a return edge
            hl = conflicts[-1][1]
            hr = conflicts[-1][3]
            if hl != _NONE and (hr == _NONE or lowpt[hl] > lowpt[hr]):
                ref[e] = hl
            else:
                ref[e] = hr

    ind = [0] * n
    skip = bytearray(m)
    for root in roots:
        stack = [root]
        while stack:
            v = stack.pop()
            e = parent_edge[v]
            row = ordered[v]
            hv = height[v]
            i = ind[v]
            descended = False
            while i < len(row):
                ei = row[i]
                if not skip[ei]:
                    stack_bottom[ei] = conflicts[-1] if conflicts else None
                    w = ehead[ei]
                    if ei == parent_edge[w]:  # tree edge: descend
                        ind[v] = i
                        skip[ei] = 1
                        stack.append(v)
                        stack.append(w)
                        descended = True
                        break
                    lowpt_edge[ei] = ei  # back edge
                    conflicts.append([_NONE, _NONE, ei, ei])
                # integrate new return edges
                if lowpt[ei] < hv:
                    if i == 0:  # first child/edge inherits directly
                        lowpt_edge[e] = lowpt_edge[ei]
                    elif not add_constraints(ei, e):
                        return None  # non-planar
                i += 1
            if descended:
                continue
            ind[v] = i
            if e != _NONE:
                remove_back_edges(e)

    # -- phase 3: embedding -------------------------------------------------------
    for e in range(m):
        # resolve the absolute side of e through its ref chain
        cur = ref[e]
        if cur != _NONE:
            chain = [e]
            while ref[cur] != _NONE:
                chain.append(cur)
                cur = ref[cur]
            for edge in reversed(chain):
                side[edge] *= side[ref[edge]]
                ref[edge] = _NONE
        if side[e] < 0:
            nesting[e] = -nesting[e]

    # Half-edge h < m is oriented edge h; h + m is its reverse.  Each
    # rotation is a circular doubly linked list over half-edge ids.
    cw = [0] * (2 * m)
    ccw = [0] * (2 * m)
    first = [_NONE] * n
    ordered = [sorted(edges, key=nesting.__getitem__) for edges in out]
    for v, edges in enumerate(ordered):
        k = len(edges)
        if k:
            first[v] = edges[0]
            for j, h in enumerate(edges):
                cw[h] = edges[(j + 1) % k]
                ccw[h] = edges[j - 1]

    left_ref = [_NONE] * n
    right_ref = [_NONE] * n
    ind = [0] * n
    for root in roots:
        stack = [root]
        while stack:
            v = stack.pop()
            row = ordered[v]
            i = ind[v]
            descended = False
            while i < len(row):
                ei = row[i]
                i += 1
                w = ehead[ei]
                twin = ei + m
                if ei == parent_edge[w]:  # tree edge: parent becomes first
                    at = first[w]
                    if at == _NONE:
                        cw[twin] = ccw[twin] = twin
                    else:  # counterclockwise-before the old first entry
                        prev = ccw[at]
                        cw[prev] = ccw[at] = twin
                        cw[twin] = at
                        ccw[twin] = prev
                    first[w] = twin
                    left_ref[v] = right_ref[v] = ei
                    ind[v] = i
                    stack.append(v)
                    stack.append(w)
                    descended = True
                    break
                # back edge: insert the reversed half-edge at the ancestor,
                # clockwise-after right_ref (side +1) or counterclockwise-
                # before left_ref (side -1)
                if side[ei] == 1:
                    at = right_ref[w]
                else:
                    at = ccw[left_ref[w]]
                    left_ref[w] = twin
                nxt = cw[at]
                cw[at] = ccw[nxt] = twin
                cw[twin] = nxt
                ccw[twin] = at
            if not descended:
                ind[v] = i

    rotations: List[List[int]] = []
    for v in range(n):
        start = first[v]
        rot: List[int] = []
        if start != _NONE:
            h = start
            while True:
                rot.append(ehead[h] if h < m else etail[h - m])
                h = cw[h]
                if h == start:
                    break
        rotations.append(rot)
    return rotations


def check_planarity(graph: nx.Graph) -> PlanarityResult:
    """Test planarity of *graph*; return verdict plus embedding if planar.

    The embedding is a clockwise :class:`RotationSystem` covering every
    node and edge of the graph.  Use
    :func:`repro.planarity.embedding.verify_planar_embedding` for an
    independent Euler-formula certificate.
    """
    if graph.is_directed() or graph.is_multigraph():
        raise GraphInputError("planarity check requires a simple undirected graph")
    nodes = list(graph)
    index = {v: i for i, v in enumerate(nodes)}
    adj = []
    for v in nodes:
        row = graph._adj[v]
        if v in row:
            raise GraphInputError("planarity check does not support self-loops")
        adj.append([index[w] for w in row])
    rotations = lr_rotations(adj)
    if rotations is None:
        return PlanarityResult(False, None)
    embedding = RotationSystem()
    for v, rot in zip(nodes, rotations):
        embedding.set_rotation(v, [nodes[w] for w in rot])
    return PlanarityResult(True, embedding)


def is_planar(graph: nx.Graph) -> bool:
    """Convenience wrapper returning only the planarity verdict."""
    return check_planarity(graph).is_planar
