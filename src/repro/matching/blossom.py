"""Exact maximum weight matching — the paper's LEMON baseline.

A from-scratch implementation of Edmonds' blossom algorithm in the
primal–dual formulation of Galil ("Efficient algorithms for finding maximum
matching in graphs", ACM Computing Surveys 1986) — the same algorithm LEMON
and van Rantwijk's classic ``mwmatching`` implement.  O(n³) worst case; the
paper could only run LEMON on its SMALL instances, and Table II measures
the LD/Suitor quality gap against it.

Engineering notes:

* Operates directly on :class:`~repro.graph.csr.CSRGraph` adjacency.
* Integer blossom ids: vertices ``0..n-1``, non-trivial blossoms allocated
  from ``n..2n-1`` (a graph has at most ``n/2`` nested blossoms live).
* Dual variables are stored pre-multiplied by two (slacks stay integral for
  integer weights) and all "tight" tests use ``slack <= 0`` so accumulated
  float error in the duals cannot deadlock the search.
* ``verify=True`` checks the complementary-slackness certificate at the
  end — the proof of optimality, used throughout the test suite.
"""

from __future__ import annotations

import numpy as np

from repro.engine.spec import AlgorithmSpec, register
from repro.graph.csr import CSRGraph
from repro.matching.types import UNMATCHED, MatchResult
from repro.matching.validate import matching_weight

__all__ = ["blossom_mwm", "maximum_weight_matching"]

_FREE, _S, _T = 0, 1, 2
_BREADCRUMB = 4
_NONE = -1


def maximum_weight_matching(
    graph: CSRGraph,
    maxcardinality: bool = False,
    verify: bool = False,
) -> np.ndarray:
    """Return the optimal ``mate`` array for ``graph``.

    ``maxcardinality=True`` restricts the optimum to maximum-cardinality
    matchings (LEMON's ``MaxWeightedPerfectMatching`` flavour when one
    exists).
    """
    n = graph.num_vertices
    mate = np.full(n, UNMATCHED, dtype=np.int64)
    if n == 0 or graph.num_directed_edges == 0:
        return mate
    indptr, indices, weights = graph.indptr, graph.indices, graph.weights

    # weight lookup per directed slot owner: wmap[(v, w)]
    wmap: dict[tuple[int, int], float] = {}
    for v in range(n):
        for k in range(indptr[v], indptr[v + 1]):
            wmap[(v, int(indices[k]))] = float(weights[k])

    maxweight = float(weights.max())

    nslots = 2 * n
    label = np.zeros(nslots, dtype=np.int64)
    labeledge: list[tuple[int, int] | None] = [None] * nslots
    inblossom = np.arange(n, dtype=np.int64)
    blossomparent = np.full(nslots, _NONE, dtype=np.int64)
    blossombase = np.concatenate(
        [np.arange(n, dtype=np.int64), np.full(n, _NONE, dtype=np.int64)]
    )
    blossomchilds: list[list[int] | None] = [None] * nslots
    blossomedges: list[list[tuple[int, int]] | None] = [None] * nslots
    mybestedges: list[list[tuple[int, int]] | None] = [None] * nslots
    bestedge: list[tuple[int, int] | None] = [None] * nslots
    dualvar = np.zeros(nslots, dtype=np.float64)
    dualvar[:n] = maxweight
    active_blossoms: list[int] = []
    unused_blossoms = list(range(nslots - 1, n - 1, -1))
    allowedge: dict[tuple[int, int], bool] = {}
    queue: list[int] = []

    mate_arr = mate  # alias; mate[v] is the partner vertex or -1

    # ---------------------------------------------------------------- #
    def slack(v: int, w: int) -> float:
        return dualvar[v] + dualvar[w] - 2.0 * wmap[(v, w)]

    def blossom_leaves(b: int):
        stack = [b]
        while stack:
            t = stack.pop()
            if t < n:
                yield t
            else:
                stack.extend(blossomchilds[t])  # type: ignore[arg-type]

    def assign_label(w: int, t: int, v: int) -> None:
        b = int(inblossom[w])
        assert label[w] == _FREE and label[b] == _FREE
        label[w] = label[b] = t
        if v != _NONE:
            labeledge[w] = labeledge[b] = (v, w)
        else:
            labeledge[w] = labeledge[b] = None
        bestedge[w] = bestedge[b] = None
        if t == _S:
            queue.extend(blossom_leaves(b))
        else:  # T: label the base's mate S
            base = int(blossombase[b])
            assign_label(int(mate_arr[base]), _S, base)

    def scan_blossom(v: int, w: int) -> int:
        """Trace back from v and w; return a new blossom's base vertex or
        -1 when an augmentation path was found."""
        path = []
        base = _NONE
        while v != _NONE:
            b = int(inblossom[v])
            if label[b] & _BREADCRUMB:
                base = int(blossombase[b])
                break
            assert label[b] == _S
            path.append(b)
            label[b] = _S | _BREADCRUMB
            if labeledge[b] is None:
                assert mate_arr[blossombase[b]] == UNMATCHED
                v = _NONE
            else:
                assert labeledge[b][0] == mate_arr[blossombase[b]]
                v = labeledge[b][0]
                b = int(inblossom[v])
                assert label[b] == _T
                v = labeledge[b][0]  # type: ignore[index]
            if w != _NONE:
                v, w = w, v
        for b in path:
            label[b] = _S
        return base

    def add_blossom(base: int, v: int, w: int) -> None:
        bb = int(inblossom[base])
        bv = int(inblossom[v])
        bw = int(inblossom[w])
        b = unused_blossoms.pop()
        active_blossoms.append(b)
        blossombase[b] = base
        blossomparent[b] = _NONE
        blossomparent[bb] = b
        path: list[int] = []
        edgs: list[tuple[int, int]] = [(v, w)]
        while bv != bb:
            blossomparent[bv] = b
            path.append(bv)
            edgs.append(labeledge[bv])  # type: ignore[arg-type]
            assert label[bv] == _T or (
                label[bv] == _S
                and labeledge[bv][0] == mate_arr[blossombase[bv]]
            )
            v = labeledge[bv][0]  # type: ignore[index]
            bv = int(inblossom[v])
        path.append(bb)
        path.reverse()
        edgs.reverse()
        while bw != bb:
            blossomparent[bw] = b
            path.append(bw)
            le = labeledge[bw]
            edgs.append((le[1], le[0]))  # type: ignore[index]
            assert label[bw] == _T or (
                label[bw] == _S
                and labeledge[bw][0] == mate_arr[blossombase[bw]]
            )
            w = labeledge[bw][0]  # type: ignore[index]
            bw = int(inblossom[w])
        assert label[bb] == _S
        label[b] = _S
        labeledge[b] = labeledge[bb]
        dualvar[b] = 0.0
        blossomchilds[b] = path
        blossomedges[b] = edgs
        for leaf in blossom_leaves(b):
            if label[inblossom[leaf]] == _T:
                queue.append(leaf)
            inblossom[leaf] = b
        # Compute the new blossom's least-slack edges to S-blossoms.
        bestedgeto: dict[int, tuple[int, int]] = {}
        for bv2 in path:
            if bv2 >= n and mybestedges[bv2] is not None:
                nblists = [mybestedges[bv2]]
                mybestedges[bv2] = None
            else:
                nblists = [
                    [
                        (leaf, int(indices[k]))
                        for leaf in blossom_leaves(bv2)
                        for k in range(indptr[leaf], indptr[leaf + 1])
                    ]
                ]
            for nblist in nblists:
                for (i, j) in nblist:  # type: ignore[union-attr]
                    if inblossom[j] == b:
                        i, j = j, i
                    bj = int(inblossom[j])
                    if (
                        bj != b
                        and label[bj] == _S
                        and (
                            bj not in bestedgeto
                            or slack(i, j) < slack(*bestedgeto[bj])
                        )
                    ):
                        bestedgeto[bj] = (i, j)
            bestedge[bv2] = None
        mybestedges[b] = list(bestedgeto.values())
        best = None
        for k in mybestedges[b]:  # type: ignore[union-attr]
            if best is None or slack(*k) < slack(*best):
                best = k
        bestedge[b] = best

    def expand_blossom(b: int, endstage: bool) -> None:
        def _recurse(b: int, endstage: bool):
            for s in blossomchilds[b]:  # type: ignore[union-attr]
                blossomparent[s] = _NONE
                if s < n:
                    inblossom[s] = s
                elif endstage and dualvar[s] == 0:
                    yield s
                else:
                    for leaf in blossom_leaves(s):
                        inblossom[leaf] = s
            if (not endstage) and label[b] == _T:
                entrychild = int(inblossom[labeledge[b][1]])  # type: ignore[index]
                childs = blossomchilds[b]  # type: ignore[assignment]
                edgs = blossomedges[b]  # type: ignore[assignment]
                j = childs.index(entrychild)
                if j & 1:
                    j -= len(childs)
                    jstep = 1
                else:
                    jstep = -1
                v, w = labeledge[b]  # type: ignore[misc]
                while j != 0:
                    if jstep == 1:
                        p, q = edgs[j]
                    else:
                        q, p = edgs[j - 1]
                    label[w] = _FREE
                    label[q] = _FREE
                    assign_label(w, _T, v)
                    allowedge[(p, q)] = allowedge[(q, p)] = True
                    j += jstep
                    if jstep == 1:
                        v, w = edgs[j]
                    else:
                        w, v = edgs[j - 1]
                    allowedge[(v, w)] = allowedge[(w, v)] = True
                    j += jstep
                bw = childs[j]
                label[w] = _T
                label[bw] = _T
                labeledge[w] = labeledge[bw] = (v, w)
                bestedge[bw] = None
                j += jstep
                while childs[j] != entrychild:
                    bv = childs[j]
                    if label[bv] == _S:
                        j += jstep
                        continue
                    leaf = bv
                    if bv >= n:
                        for leaf in blossom_leaves(bv):
                            if label[leaf]:
                                break
                    if label[leaf]:
                        assert label[leaf] == _T
                        assert inblossom[leaf] == bv
                        label[leaf] = _FREE
                        label[mate_arr[blossombase[bv]]] = _FREE
                        assign_label(leaf, _T, labeledge[leaf][0])  # type: ignore[index]
                    j += jstep
            label[b] = _FREE
            labeledge[b] = None
            bestedge[b] = None
            blossomchilds[b] = None
            blossomedges[b] = None
            blossombase[b] = _NONE
            mybestedges[b] = None
            dualvar[b] = 0.0
            active_blossoms.remove(b)
            unused_blossoms.append(b)

        stack = [_recurse(b, endstage)]
        while stack:
            top = stack[-1]
            advanced = False
            for s in top:
                stack.append(_recurse(s, endstage))
                advanced = True
                break
            if not advanced:
                stack.pop()

    def augment_blossom(b: int, v: int) -> None:
        def _recurse(b: int, v: int):
            t = v
            while blossomparent[t] != b:
                t = int(blossomparent[t])
            if t >= n:
                yield (t, v)
            childs = blossomchilds[b]  # type: ignore[assignment]
            edgs = blossomedges[b]  # type: ignore[assignment]
            i = j = childs.index(t)
            if i & 1:
                j -= len(childs)
                jstep = 1
            else:
                jstep = -1
            while j != 0:
                j += jstep
                t = childs[j]
                if jstep == 1:
                    w, x = edgs[j]
                else:
                    x, w = edgs[j - 1]
                if t >= n:
                    yield (t, w)
                j += jstep
                t = childs[j]
                if t >= n:
                    yield (t, x)
                mate_arr[w] = x
                mate_arr[x] = w
            blossomchilds[b] = childs[i:] + childs[:i]
            blossomedges[b] = edgs[i:] + edgs[:i]
            blossombase[b] = blossombase[blossomchilds[b][0]]
            assert blossombase[b] == v

        stack = [_recurse(b, v)]
        while stack:
            top = stack[-1]
            advanced = False
            for args in top:
                stack.append(_recurse(*args))
                advanced = True
                break
            if not advanced:
                stack.pop()

    def augment_matching(v: int, w: int) -> None:
        for s, j in ((v, w), (w, v)):
            while True:
                bs = int(inblossom[s])
                assert label[bs] == _S
                assert (
                    labeledge[bs] is None
                    and mate_arr[blossombase[bs]] == UNMATCHED
                ) or labeledge[bs][0] == mate_arr[blossombase[bs]]
                if bs >= n:
                    augment_blossom(bs, s)
                mate_arr[s] = j
                if labeledge[bs] is None:
                    break
                t = labeledge[bs][0]
                bt = int(inblossom[t])
                assert label[bt] == _T
                s, j = labeledge[bt]  # type: ignore[misc]
                assert blossombase[bt] == t
                if bt >= n:
                    augment_blossom(bt, j)
                mate_arr[j] = s

    def verify_optimum() -> None:
        vdualoffset = 0.0
        if maxcardinality:
            vdualoffset = max(0.0, -float(dualvar[:n].min()))
        assert dualvar[:n].min() + vdualoffset >= -1e-9
        assert all(dualvar[b] >= -1e-9 for b in active_blossoms)
        for v in range(n):
            for k in range(indptr[v], indptr[v + 1]):
                w2 = int(indices[k])
                if v > w2:
                    continue
                s = dualvar[v] + dualvar[w2] - 2.0 * weights[k]
                vbl, wbl = [v], [w2]
                while blossomparent[vbl[-1]] != _NONE:
                    vbl.append(int(blossomparent[vbl[-1]]))
                while blossomparent[wbl[-1]] != _NONE:
                    wbl.append(int(blossomparent[wbl[-1]]))
                vbl.reverse()
                wbl.reverse()
                for bi, bj in zip(vbl, wbl):
                    if bi != bj:
                        break
                    s += 2.0 * dualvar[bi]
                assert s >= -1e-6
                if mate_arr[v] == w2:
                    assert abs(s) <= 1e-6
        for v in range(n):
            assert mate_arr[v] != UNMATCHED or \
                abs(dualvar[v] + vdualoffset) <= 1e-6
        for b in active_blossoms:
            if dualvar[b] > 1e-9:
                assert len(blossomedges[b]) % 2 == 1
                for (i, j) in blossomedges[b][1::2]:
                    assert mate_arr[i] == j and mate_arr[j] == i

    # ------------------------- main loop ----------------------------- #
    while True:
        label[:] = _FREE
        labeledge = [None] * nslots
        bestedge = [None] * nslots
        for b in active_blossoms:
            mybestedges[b] = None
        allowedge.clear()
        queue.clear()
        for v in range(n):
            if mate_arr[v] == UNMATCHED and label[inblossom[v]] == _FREE:
                assign_label(v, _S, _NONE)

        augmented = False
        while True:
            while queue and not augmented:
                v = queue.pop()
                assert label[inblossom[v]] == _S
                for k in range(indptr[v], indptr[v + 1]):
                    w2 = int(indices[k])
                    bv = int(inblossom[v])
                    bw = int(inblossom[w2])
                    if bv == bw:
                        continue
                    if (v, w2) not in allowedge:
                        kslack = slack(v, w2)
                        if kslack <= 0:
                            allowedge[(v, w2)] = allowedge[(w2, v)] = True
                    else:
                        kslack = 0.0
                    if (v, w2) in allowedge:
                        if label[bw] == _FREE:
                            assign_label(w2, _T, v)
                        elif label[bw] == _S:
                            base = scan_blossom(v, w2)
                            if base != _NONE:
                                add_blossom(base, v, w2)
                            else:
                                augment_matching(v, w2)
                                augmented = True
                                break
                        elif label[w2] == _FREE:
                            assert label[bw] == _T
                            label[w2] = _T
                            labeledge[w2] = (v, w2)
                    elif label[bw] == _S:
                        if bestedge[bv] is None or \
                                kslack < slack(*bestedge[bv]):
                            bestedge[bv] = (v, w2)
                    elif label[w2] == _FREE:
                        if bestedge[w2] is None or \
                                kslack < slack(*bestedge[w2]):
                            bestedge[w2] = (v, w2)
            if augmented:
                break

            # No augmentation path: pump slack out of the duals.
            deltatype = -1
            delta = 0.0
            deltaedge: tuple[int, int] | None = None
            deltablossom = _NONE
            if not maxcardinality:
                deltatype = 1
                delta = float(dualvar[:n].min())
            for v in range(n):
                if label[inblossom[v]] == _FREE and bestedge[v] is not None:
                    d = slack(*bestedge[v])
                    if deltatype == -1 or d < delta:
                        delta = d
                        deltatype = 2
                        deltaedge = bestedge[v]
            for b in range(nslots):
                if (
                    blossomparent[b] == _NONE
                    and (b < n or blossombase[b] >= 0)
                    and label[b] == _S
                    and bestedge[b] is not None
                ):
                    d = slack(*bestedge[b]) / 2.0
                    if deltatype == -1 or d < delta:
                        delta = d
                        deltatype = 3
                        deltaedge = bestedge[b]
            for b in active_blossoms:
                if (
                    blossomparent[b] == _NONE
                    and label[b] == _T
                    and (deltatype == -1 or dualvar[b] < delta)
                ):
                    delta = float(dualvar[b])
                    deltatype = 4
                    deltablossom = b
            if deltatype == -1:
                assert maxcardinality
                deltatype = 1
                delta = max(0.0, float(dualvar[:n].min()))

            for v in range(n):
                lb = label[inblossom[v]]
                if lb == _S:
                    dualvar[v] -= delta
                elif lb == _T:
                    dualvar[v] += delta
            for b in active_blossoms:
                if blossomparent[b] == _NONE:
                    if label[b] == _S:
                        dualvar[b] += delta
                    elif label[b] == _T:
                        dualvar[b] -= delta

            if deltatype == 1:
                break
            elif deltatype == 2:
                v, w2 = deltaedge  # type: ignore[misc]
                assert label[inblossom[v]] == _S
                allowedge[(v, w2)] = allowedge[(w2, v)] = True
                queue.append(v)
            elif deltatype == 3:
                v, w2 = deltaedge  # type: ignore[misc]
                allowedge[(v, w2)] = allowedge[(w2, v)] = True
                assert label[inblossom[v]] == _S
                queue.append(v)
            elif deltatype == 4:
                expand_blossom(deltablossom, False)

        if not augmented:
            break

        # End of a successful stage: expand all S-blossoms with zero dual.
        for b in list(active_blossoms):
            if (
                blossombase[b] >= 0
                and blossomparent[b] == _NONE
                and label[b] == _S
                and dualvar[b] == 0
            ):
                expand_blossom(b, True)

    if verify:
        verify_optimum()
    return mate_arr


def blossom_mwm(graph: CSRGraph, maxcardinality: bool = False,
                verify: bool = False) -> MatchResult:
    """:func:`maximum_weight_matching` wrapped in a :class:`MatchResult`."""
    mate = maximum_weight_matching(graph, maxcardinality=maxcardinality,
                                   verify=verify)
    return MatchResult(
        mate=mate,
        weight=matching_weight(graph, mate),
        algorithm="blossom" + ("_maxcard" if maxcardinality else ""),
        iterations=0,
    )


register(AlgorithmSpec(
    name="blossom",
    fn=blossom_mwm,
    summary="exact maximum weight matching (LEMON stand-in)",
    exact=True,
))
