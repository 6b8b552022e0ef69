"""Sparse change-in-description-length computations.

SBP evaluates millions of candidate vertex moves and block merges; computing
the full description length for each would be hopeless.  Both proposals only
touch two rows and two columns of the block matrix, so the change in the
likelihood term of Eq. (2) can be computed over that region alone — the
paper's optimisation (c) ("using a sparse vector of changes to the
blockmodel to perform change in description length computations").

The functions here return **ΔDL** with the paper's sign convention: negative
values are improvements (DL is minimised).

For vertex moves the model-complexity term of Eq. (2) is unchanged (the
number of blocks stays fixed), so ``ΔDL = −ΔL``.  For block merges the model
term changes identically for every candidate merge (B decreases by one), so
it is omitted by default when ranking merges and can be included via
``include_model_term=True`` when an absolute ΔDL is wanted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional

import numpy as np

from repro.blockmodel.blockmodel import Blockmodel, VertexBlockCounts, concat_ranges
from repro.blockmodel.entropy import model_complexity_term

__all__ = [
    "MERGE_SCORE_CHUNK",
    "MoveDelta",
    "BatchMoveEvaluation",
    "delta_dl_for_move",
    "delta_dl_for_moves",
    "delta_dl_for_merge",
    "delta_dl_for_merges",
]


@dataclass
class MoveDelta:
    """A fully-evaluated vertex-move proposal.

    Carrying the :class:`VertexBlockCounts` along lets the caller apply the
    accepted move without recomputing the vertex's neighbourhood.
    """

    vertex: int
    from_block: int
    to_block: int
    delta_dl: float
    counts: VertexBlockCounts

    @property
    def is_improvement(self) -> bool:
        return self.delta_dl < 0


class _DegreeView:
    """Array-backed degree lookup with a sparse override for changed blocks."""

    __slots__ = ("base", "overrides")

    def __init__(self, base: np.ndarray, overrides: Optional[Dict[int, int]] = None) -> None:
        self.base = base
        self.overrides = overrides or {}

    def __getitem__(self, idx: int) -> int:
        if idx in self.overrides:
            return self.overrides[idx]
        return int(self.base[idx])


def _region_likelihood(
    rows: Mapping[int, Mapping[int, int]],
    cols: Mapping[int, Mapping[int, int]],
    d_out,
    d_in,
) -> float:
    """Likelihood contribution of the given rows and columns.

    Entries that belong to one of the listed rows are counted there; column
    entries whose row index is also listed are skipped to avoid double
    counting.
    """
    total = 0.0
    row_ids = set(rows.keys())
    # Entries are accumulated in ascending index order so that the sums do
    # not depend on the order a backend's row/column snapshots come in.
    for i, row in rows.items():
        douti = d_out[i]
        if douti <= 0:
            continue
        for j in sorted(row):
            val = row[j]
            if val > 0:
                total += val * math.log(val / (douti * d_in[j]))
    for j, col in cols.items():
        dinj = d_in[j]
        if dinj <= 0:
            continue
        for i in sorted(col):
            if i in row_ids:
                continue
            val = col[i]
            if val > 0:
                total += val * math.log(val / (d_out[i] * dinj))
    return total


def _apply_row_delta(row: Mapping[int, int], deltas: Iterable) -> Dict[int, int]:
    out = dict(row)
    for key, d in deltas:
        new = out.get(key, 0) + d
        if new:
            out[key] = new
        else:
            out.pop(key, None)
    return out


def delta_dl_for_move_slow(
    blockmodel: Blockmodel,
    vertex: int,
    to_block: int,
    counts: Optional[VertexBlockCounts] = None,
) -> MoveDelta:
    """Reference ΔDL of a vertex move, computed over the full affected region.

    This is the straightforward (row/column re-evaluation) formulation.  The
    production path :func:`delta_dl_for_move` uses an aggregated form that
    avoids touching unchanged entries; the test-suite checks that the two
    always agree (and that both agree with a full DL recomputation).
    """
    from_block = int(blockmodel.assignment[vertex])
    to_block = int(to_block)
    if counts is None:
        counts = blockmodel.vertex_block_counts(vertex)
    if from_block == to_block:
        return MoveDelta(vertex, from_block, to_block, 0.0, counts)

    matrix = blockmodel.matrix
    r, s = from_block, to_block

    # Sparse matrix delta induced by the move (see Blockmodel.move_vertex).
    entry_delta: Dict[tuple, int] = {}

    def bump(i: int, j: int, d: int) -> None:
        if d == 0:
            return
        key = (i, j)
        entry_delta[key] = entry_delta.get(key, 0) + d

    for b, w in counts.out_counts.items():
        bump(r, b, -w)
        bump(s, b, w)
    for b, w in counts.in_counts.items():
        bump(b, r, -w)
        bump(b, s, w)
    if counts.self_loop:
        bump(r, r, -counts.self_loop)
        bump(s, s, counts.self_loop)

    old_rows = {r: matrix.row(r), s: matrix.row(s)}
    old_cols = {r: matrix.col(r), s: matrix.col(s)}

    new_rows = {
        r: _apply_row_delta(matrix.row(r), ((j, d) for (i, j), d in entry_delta.items() if i == r)),
        s: _apply_row_delta(matrix.row(s), ((j, d) for (i, j), d in entry_delta.items() if i == s)),
    }
    new_cols = {
        r: _apply_row_delta(matrix.col(r), ((i, d) for (i, j), d in entry_delta.items() if j == r)),
        s: _apply_row_delta(matrix.col(s), ((i, d) for (i, j), d in entry_delta.items() if j == s)),
    }

    out_total = counts.out_total
    in_total = counts.in_total
    d_out = blockmodel.block_out_degrees
    d_in = blockmodel.block_in_degrees
    new_d_out = _DegreeView(d_out, {r: int(d_out[r]) - out_total, s: int(d_out[s]) + out_total})
    new_d_in = _DegreeView(d_in, {r: int(d_in[r]) - in_total, s: int(d_in[s]) + in_total})
    old_d_out = _DegreeView(d_out)
    old_d_in = _DegreeView(d_in)

    old_term = _region_likelihood(old_rows, old_cols, old_d_out, old_d_in)
    new_term = _region_likelihood(new_rows, new_cols, new_d_out, new_d_in)
    # DL contains −L, so ΔDL = L_old − L_new over the affected region.
    delta = old_term - new_term
    return MoveDelta(vertex, from_block, to_block, delta, counts)


def delta_dl_for_move(
    blockmodel: Blockmodel,
    vertex: int,
    to_block: int,
    counts: Optional[VertexBlockCounts] = None,
) -> MoveDelta:
    """ΔDL of moving ``vertex`` to ``to_block`` (without applying it).

    Aggregated formulation (the paper's optimisation (c)): the likelihood
    term of every entry whose *value* is untouched by the move changes only
    through the changed block degrees, so those entries' contributions can be
    summed per row/column and adjusted with a single logarithm instead of one
    per entry.  Only the entries actually modified by the move (the vertex's
    neighbour blocks and the four ``{r,s} × {r,s}`` corners) are re-evaluated
    individually.
    """
    from_block = int(blockmodel.assignment[vertex])
    to_block = int(to_block)
    if counts is None:
        counts = blockmodel.vertex_block_counts(vertex)
    if from_block == to_block:
        return MoveDelta(vertex, from_block, to_block, 0.0, counts)

    matrix = blockmodel.matrix
    r, s = from_block, to_block
    log = math.log

    # ------------------------------------------------------------------
    # Matrix entries whose value changes, as {(i, j): delta}.
    # ------------------------------------------------------------------
    entry_delta: Dict[tuple, int] = {}

    def bump(i: int, j: int, d: int) -> None:
        if d:
            key = (i, j)
            entry_delta[key] = entry_delta.get(key, 0) + d

    for b, w in counts.out_counts.items():
        bump(r, b, -w)
        bump(s, b, w)
    for b, w in counts.in_counts.items():
        bump(b, r, -w)
        bump(b, s, w)
    if counts.self_loop:
        bump(r, r, -counts.self_loop)
        bump(s, s, counts.self_loop)
    # The four corner entries sit in a changed row *and* a changed column;
    # always treat them explicitly so the aggregated row/column terms below
    # can exclude {r, s} wholesale.
    for corner in ((r, r), (r, s), (s, r), (s, s)):
        entry_delta.setdefault(corner, 0)

    d_out = blockmodel.block_out_degrees
    d_in = blockmodel.block_in_degrees
    out_total = counts.out_total
    in_total = counts.in_total
    old_dout = {r: int(d_out[r]), s: int(d_out[s])}
    old_din = {r: int(d_in[r]), s: int(d_in[s])}
    new_dout = {r: old_dout[r] - out_total, s: old_dout[s] + out_total}
    new_din = {r: old_din[r] - in_total, s: old_din[s] + in_total}

    delta_likelihood = 0.0

    # ------------------------------------------------------------------
    # 1. Entries with changed values (plus the corners).  The old values of
    #    the changed entries are also accumulated per affected row/column so
    #    that steps 2-3 can use the cached marginals instead of scanning the
    #    rows (``unchanged = row_sum − changed``, all exact integers).
    # ------------------------------------------------------------------
    changed_row = {r: 0, s: 0}
    changed_col = {r: 0, s: 0}
    for (i, j), d in entry_delta.items():
        old_val = matrix.get(i, j)
        new_val = old_val + d
        if i in changed_row:
            changed_row[i] += old_val
        if j in changed_col:
            changed_col[j] += old_val
        if old_val > 0:
            doi = old_dout.get(i, 0) if i in old_dout else int(d_out[i])
            dij = old_din.get(j, 0) if j in old_din else int(d_in[j])
            delta_likelihood -= old_val * log(old_val / (doi * dij))
        if new_val > 0:
            doi = new_dout[i] if i in new_dout else int(d_out[i])
            dij = new_din[j] if j in new_din else int(d_in[j])
            delta_likelihood += new_val * log(new_val / (doi * dij))

    # ------------------------------------------------------------------
    # 2. Row r and row s entries whose values are unchanged: only the row's
    #    out-degree moved, contributing  -sum(M) * log(new_dout / old_dout).
    #    The row sum equals the block's out-degree, so no row scan is needed.
    # ------------------------------------------------------------------
    for row_block in (r, s):
        unchanged_sum = old_dout[row_block] - changed_row[row_block]
        if unchanged_sum and new_dout[row_block] > 0 and old_dout[row_block] > 0:
            delta_likelihood -= unchanged_sum * log(new_dout[row_block] / old_dout[row_block])

    # ------------------------------------------------------------------
    # 3. Column r and column s entries whose values are unchanged.
    # ------------------------------------------------------------------
    for col_block in (r, s):
        unchanged_sum = old_din[col_block] - changed_col[col_block]
        if unchanged_sum and new_din[col_block] > 0 and old_din[col_block] > 0:
            delta_likelihood -= unchanged_sum * log(new_din[col_block] / old_din[col_block])

    # DL contains −L, so ΔDL = −ΔL.
    return MoveDelta(vertex, from_block, to_block, -delta_likelihood, counts)


@dataclass
class BatchMoveEvaluation:
    """ΔDL of a batch of vertex moves, plus the flattened move context.

    Produced by :func:`delta_dl_for_moves`.  Beyond the per-move ``delta_dl``
    it carries the flattened sparse matrix delta and the combined
    neighbour-block counts of every move, which
    :func:`repro.core.proposals.hastings_corrections` reuses to evaluate the
    reverse proposals without touching the graph again.
    """

    #: Per-move arrays, all of shape ``(m,)``.
    vertices: np.ndarray
    from_blocks: np.ndarray
    to_blocks: np.ndarray
    delta_dl: np.ndarray
    out_totals: np.ndarray
    in_totals: np.ndarray

    #: Flattened combined neighbour-block counts: entry ``k`` says that move
    #: ``nbr_move[k]``'s vertex has ``nbr_weight[k]`` edges (in+out) to block
    #: ``nbr_block[k]``.  Self-loops are excluded, mirroring
    #: ``VertexBlockCounts``.
    nbr_move: np.ndarray
    nbr_block: np.ndarray
    nbr_weight: np.ndarray

    #: Flattened sparse matrix delta, deduplicated and sorted by
    #: ``move · B² + i · B + j`` (see :meth:`entry_key_of`).
    entry_keys: np.ndarray
    entry_deltas: np.ndarray

    #: Number of blocks at evaluation time (the key stride).
    num_blocks: int

    def entry_key_of(self, move: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Flat key of entry ``(i, j)`` of the given move's matrix delta."""
        stride = np.int64(self.num_blocks) * np.int64(self.num_blocks)
        return move.astype(np.int64) * stride + i.astype(np.int64) * np.int64(self.num_blocks) + j

    def entry_delta_at(self, move: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Delta of entry ``(i, j)`` per move (0 where the move leaves it)."""
        keys = self.entry_key_of(move, i, j)
        pos = np.searchsorted(self.entry_keys, keys)
        pos_clipped = np.minimum(pos, len(self.entry_keys) - 1)
        found = self.entry_keys[pos_clipped] == keys
        return np.where(found, self.entry_deltas[pos_clipped], 0)


def _batch_neighbor_counts(graph, assignment: np.ndarray, vertices: np.ndarray, direction: str):
    """Flattened per-move neighbour-block counts for one edge direction.

    Returns ``(move, block, weight, totals, self_loops)`` where the first
    three arrays list, for every move, the aggregated edge weight from/to
    each neighbouring block (self-loops excluded, like
    ``Blockmodel.vertex_block_counts``), ``totals`` is the per-move total
    including self-loops (``out_total`` / ``in_total``) and ``self_loops``
    the per-move self-loop weight.
    """
    indptr, indices, data = graph.out_adjacency() if direction == "out" else graph.in_adjacency()
    m = vertices.shape[0]
    starts = indptr[vertices]
    lengths = indptr[vertices + 1] - starts
    flat = concat_ranges(starts, lengths)
    move = np.repeat(np.arange(m, dtype=np.int64), lengths)
    nbr = indices[flat]
    w = data[flat]

    self_mask = nbr == vertices[move]
    self_loops = np.bincount(move[self_mask], weights=w[self_mask], minlength=m).astype(np.int64)
    move, nbr, w = move[~self_mask], nbr[~self_mask], w[~self_mask]
    blocks = assignment[nbr]

    num_blocks = np.int64(int(assignment.max(initial=0)) + 1)
    keys = move * num_blocks + blocks
    unique_keys, inverse = np.unique(keys, return_inverse=True)
    weights = np.bincount(inverse, weights=w, minlength=unique_keys.shape[0]).astype(np.int64)
    agg_move = unique_keys // num_blocks
    agg_block = unique_keys % num_blocks

    totals = np.bincount(move, weights=w, minlength=m).astype(np.int64) + self_loops
    return agg_move, agg_block, weights, totals, self_loops


def delta_dl_for_moves(
    blockmodel: Blockmodel,
    vertices: np.ndarray,
    to_blocks: np.ndarray,
) -> BatchMoveEvaluation:
    """Batched ΔDL of many vertex moves, evaluated against the current state.

    Vectorized counterpart of :func:`delta_dl_for_move` (same aggregated
    formulation, same sign convention): all candidate moves are scored with
    whole-batch numpy operations instead of per-move Python loops.  Every
    move is evaluated against the *same* (current) blockmodel state, which
    is exactly the staleness semantics of the asynchronous Gibbs batches in
    :mod:`repro.core.hybrid_mcmc`.

    Moves proposing ``to_block == from_block`` get ``ΔDL = 0``.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    to_blocks = np.asarray(to_blocks, dtype=np.int64)
    if vertices.shape != to_blocks.shape:
        raise ValueError("vertices and to_blocks must have the same shape")
    matrix = blockmodel.matrix
    m = vertices.shape[0]
    num_blocks = blockmodel.num_blocks
    assignment = blockmodel.assignment
    r = assignment[vertices]
    s = to_blocks
    graph = blockmodel.graph

    out_move, out_block, out_w, out_totals, self_loops = _batch_neighbor_counts(
        graph, assignment, vertices, "out"
    )
    in_move, in_block, in_w, in_totals, _ = _batch_neighbor_counts(
        graph, assignment, vertices, "in"
    )

    # ------------------------------------------------------------------
    # Flattened sparse matrix delta: for each move the same bumps the scalar
    # kernel makes, keyed by  move·B² + i·B + j  and deduplicated.  The four
    # {r,s}×{r,s} corners are always included (with +0) so that the degree
    # change is accounted for on them even when no edge touches them.
    # ------------------------------------------------------------------
    i_parts = [r[out_move], s[out_move], in_block, in_block, r, s, r, r, s, s]
    j_parts = [out_block, out_block, r[in_move], s[in_move], r, s, r, s, r, s]
    d_parts = [
        -out_w,
        out_w,
        -in_w,
        in_w,
        -self_loops,
        self_loops,
        np.zeros(m, dtype=np.int64),
        np.zeros(m, dtype=np.int64),
        np.zeros(m, dtype=np.int64),
        np.zeros(m, dtype=np.int64),
    ]
    move_parts = [out_move, out_move, in_move, in_move] + [np.arange(m, dtype=np.int64)] * 6
    entry_i = np.concatenate(i_parts)
    entry_j = np.concatenate(j_parts)
    entry_d = np.concatenate(d_parts)
    entry_move = np.concatenate(move_parts)

    stride = np.int64(num_blocks) * np.int64(num_blocks)
    keys = entry_move * stride + entry_i * np.int64(num_blocks) + entry_j
    unique_keys, inverse = np.unique(keys, return_inverse=True)
    deltas = np.bincount(inverse, weights=entry_d, minlength=unique_keys.shape[0]).astype(np.int64)

    mid = unique_keys // stride
    rem = unique_keys % stride
    i_u = rem // num_blocks
    j_u = rem % num_blocks

    old = matrix.get_many(i_u, j_u)
    new = old + deltas

    d_out = blockmodel.block_out_degrees
    d_in = blockmodel.block_in_degrees
    r_u = r[mid]
    s_u = s[mid]
    same = r == s  # degenerate moves contribute ΔDL = 0 (masked at the end)

    doi_old = d_out[i_u].astype(np.float64)
    dij_old = d_in[j_u].astype(np.float64)
    shift_out = out_totals[mid]
    shift_in = in_totals[mid]
    doi_new = doi_old + np.where(i_u == s_u, shift_out, 0) - np.where(i_u == r_u, shift_out, 0)
    dij_new = dij_old + np.where(j_u == s_u, shift_in, 0) - np.where(j_u == r_u, shift_in, 0)

    with np.errstate(divide="ignore", invalid="ignore"):
        term_old = np.where(old > 0, old * np.log(old / (doi_old * dij_old)), 0.0)
        term_new = np.where(new > 0, new * np.log(new / (doi_new * dij_new)), 0.0)
    delta_likelihood = np.bincount(mid, weights=term_new - term_old, minlength=m)

    # ------------------------------------------------------------------
    # Unchanged entries of the affected rows/columns: only their row/column
    # degree moved.  unchanged = marginal − Σ(old values of changed entries).
    # ------------------------------------------------------------------
    def _unchanged_term(axis_u, block_r, block_s, degrees, shifts):
        mask_r = axis_u == block_r[mid]
        mask_s = axis_u == block_s[mid]
        changed_r = np.bincount(mid[mask_r], weights=old[mask_r], minlength=m)
        changed_s = np.bincount(mid[mask_s], weights=old[mask_s], minlength=m)
        total = np.zeros(m, dtype=np.float64)
        for block, changed, sign in ((block_r, changed_r, -1), (block_s, changed_s, 1)):
            old_deg = degrees[block].astype(np.float64)
            new_deg = old_deg + sign * shifts
            unchanged = old_deg - changed
            ok = (unchanged > 0) & (new_deg > 0) & (old_deg > 0)
            with np.errstate(divide="ignore", invalid="ignore"):
                total -= np.where(ok, unchanged * np.log(np.where(ok, new_deg / np.where(old_deg > 0, old_deg, 1.0), 1.0)), 0.0)
        return total

    delta_likelihood += _unchanged_term(i_u, r, s, d_out, out_totals)
    delta_likelihood += _unchanged_term(j_u, r, s, d_in, in_totals)

    delta_dl = np.where(same, 0.0, -delta_likelihood)

    # Combined (in+out) neighbour-block counts for the Hastings correction.
    ckeys = np.concatenate([out_move * np.int64(num_blocks) + out_block,
                            in_move * np.int64(num_blocks) + in_block])
    cw = np.concatenate([out_w, in_w])
    c_unique, c_inverse = np.unique(ckeys, return_inverse=True)
    c_weights = np.bincount(c_inverse, weights=cw, minlength=c_unique.shape[0]).astype(np.int64)

    return BatchMoveEvaluation(
        vertices=vertices,
        from_blocks=r,
        to_blocks=s,
        delta_dl=delta_dl,
        out_totals=out_totals,
        in_totals=in_totals,
        nbr_move=c_unique // num_blocks,
        nbr_block=c_unique % num_blocks,
        nbr_weight=c_weights,
        entry_keys=unique_keys,
        entry_deltas=deltas,
        num_blocks=num_blocks,
    )


def _merge_region_sums(
    segment_ids: np.ndarray,
    values: np.ndarray,
    denominators: np.ndarray,
    num_segments: int,
) -> np.ndarray:
    """Per-segment likelihood sums ``Σ v·log(v / denom)``, in input order.

    This is the one summation primitive shared by the scalar
    (:func:`delta_dl_for_merge`) and batched (:func:`delta_dl_for_merges`)
    merge kernels.  ``np.bincount`` accumulates its weights strictly
    sequentially in input order, so as long as both callers lay out a merge
    candidate's region entries in the same order, the two paths produce
    **bit-identical** sums — which is what makes the scalar kernel an exact
    oracle for the batched one (the sort keys of the merge phase are these
    floats).  All entries must have ``v > 0`` and ``denom > 0``.
    """
    if values.size == 0:
        return np.zeros(num_segments, dtype=np.float64)
    terms = values * np.log(values / denominators)
    return np.bincount(segment_ids, weights=terms, minlength=num_segments)


def _merge_model_term_delta(blockmodel: Blockmodel) -> float:
    """Eq. (2) model-term change of one merge (identical for all candidates)."""
    num_nonempty = blockmodel.num_nonempty_blocks()
    before = model_complexity_term(blockmodel.num_vertices, blockmodel.num_edges, max(num_nonempty, 1))
    after = model_complexity_term(blockmodel.num_vertices, blockmodel.num_edges, max(num_nonempty - 1, 1))
    return after - before


def delta_dl_for_merge(
    blockmodel: Blockmodel,
    from_block: int,
    to_block: int,
    include_model_term: bool = False,
) -> float:
    """ΔDL of merging ``from_block`` into ``to_block`` (without applying it).

    The likelihood change treats the merged block as keeping label
    ``to_block`` while ``from_block`` becomes empty.  With
    ``include_model_term=True`` the Eq. (2) model-term change for going from
    ``B`` to ``B − 1`` blocks is added (identical for all merge candidates).

    The affected region (rows and columns ``r`` and ``s``) is evaluated
    entry-by-entry in a canonical order — row ``r`` ascending, row ``s``
    ascending, column ``r`` ascending, column ``s`` ascending (the two
    columns skip entries whose row is ``r`` or ``s`` to avoid double
    counting) — through :func:`_merge_region_sums`, so the result is
    bit-identical to the batched :func:`delta_dl_for_merges` kernel.
    """
    r, s = int(from_block), int(to_block)
    if r == s:
        return 0.0
    matrix = blockmodel.matrix
    d_out = blockmodel.block_out_degrees
    d_in = blockmodel.block_in_degrees
    row_r, row_s = matrix.row(r), matrix.row(s)
    col_r, col_s = matrix.col(r), matrix.col(s)
    dout_r, dout_s = int(d_out[r]), int(d_out[s])
    din_r, din_s = int(d_in[r]), int(d_in[s])

    vals: list = []
    denoms: list = []
    for row, dout in ((row_r, dout_r), (row_s, dout_s)):
        for j in sorted(row):
            v = row[j]
            if v > 0:
                vals.append(v)
                denoms.append(dout * int(d_in[j]))
    for col, din in ((col_r, din_r), (col_s, din_s)):
        for i in sorted(col):
            if i == r or i == s:
                continue
            v = col[i]
            if v > 0:
                vals.append(v)
                denoms.append(int(d_out[i]) * din)
    num_old = len(vals)

    # The merged block keeps label ``s``: fold index ``r`` into ``s`` in both
    # the merged row and the merged column.
    merged_row: Dict[int, int] = {}
    for source in (row_r, row_s):
        for j, w in source.items():
            key = s if j == r else j
            merged_row[key] = merged_row.get(key, 0) + w
    merged_col: Dict[int, int] = {}
    for source in (col_r, col_s):
        for i, w in source.items():
            key = s if i == r else i
            merged_col[key] = merged_col.get(key, 0) + w
    merged_dout = dout_r + dout_s
    merged_din = din_r + din_s

    for j in sorted(merged_row):
        v = merged_row[j]
        if v > 0:
            vals.append(v)
            denoms.append(merged_dout * (merged_din if j == s else int(d_in[j])))
    for i in sorted(merged_col):
        if i == r or i == s:
            continue
        v = merged_col[i]
        if v > 0:
            vals.append(v)
            denoms.append(int(d_out[i]) * merged_din)

    ids = np.zeros(len(vals), dtype=np.int64)
    ids[num_old:] = 1
    sums = _merge_region_sums(
        ids, np.asarray(vals, dtype=np.int64), np.asarray(denoms, dtype=np.int64), 2
    )
    delta = float(sums[0] - sums[1])

    if include_model_term:
        delta += _merge_model_term_delta(blockmodel)
    return delta


#: Merge candidates gathered per pass of :func:`delta_dl_for_merges`.  The
#: kernel's temporaries grow with the candidates' summed row and column
#: lengths, so fixed chunks bound peak memory while keeping each pass large
#: enough to amortise numpy's per-call overhead.
MERGE_SCORE_CHUNK = 128


def _gather_segments(ptr: np.ndarray, blocks: np.ndarray) -> tuple:
    """Flattened CSR segments of the given blocks: (candidate_idx, flat_idx)."""
    starts = ptr[blocks]
    lengths = ptr[blocks + 1] - starts
    flat = concat_ranges(starts, lengths)
    cand = np.repeat(np.arange(blocks.shape[0], dtype=np.int64), lengths)
    return cand, flat


def delta_dl_for_merges(
    blockmodel: Blockmodel,
    from_blocks: np.ndarray,
    to_blocks: np.ndarray,
    include_model_term: bool = False,
) -> np.ndarray:
    """Batched ΔDL of many candidate block merges (the merge-phase kernel).

    Vectorized counterpart of :func:`delta_dl_for_merge`: all candidates are
    scored with whole-batch numpy gathers over the non-zero structure of the
    block matrix instead of per-candidate Python loops.  Per-candidate work
    is O(Σ nnz(rows/cols touched)), on top of a once-per-call
    ``matrix.csr_structure()`` build (a zero-copy view on the sparse_csr
    backend; O(B²) + O(nnz·log nnz) on the dense backend) — callers
    amortise that by scoring a whole phase's candidates in one call, the
    way :func:`repro.core.merges.best_segmented_merges` does.  The
    candidates are gathered in chunks of :data:`MERGE_SCORE_CHUNK`, so
    peak memory does not grow with the batch.

    Each candidate's region entries are laid out in exactly the canonical
    order of the scalar kernel and summed through the same sequential
    primitive (:func:`_merge_region_sums`), so the returned deltas are
    **bit-identical** to per-candidate :func:`delta_dl_for_merge` calls,
    whatever chunk a candidate lands in — the property the cross-backend
    differential suite locks down.

    Candidates with ``from_block == to_block`` get ``ΔDL = 0``.
    """
    from_blocks = np.asarray(from_blocks, dtype=np.int64)
    to_blocks = np.asarray(to_blocks, dtype=np.int64)
    if from_blocks.shape != to_blocks.shape:
        raise ValueError("from_blocks and to_blocks must have the same shape")
    deltas = np.zeros(from_blocks.shape[0], dtype=np.float64)
    valid = np.flatnonzero(from_blocks != to_blocks)
    if valid.size == 0:
        return deltas
    structure = blockmodel.matrix.csr_structure()
    for start in range(0, valid.size, MERGE_SCORE_CHUNK):
        chunk = valid[start:start + MERGE_SCORE_CHUNK]
        deltas[chunk] = _merge_deltas(blockmodel, from_blocks[chunk], to_blocks[chunk], structure)
    if include_model_term:
        deltas[valid] += _merge_model_term_delta(blockmodel)
    return deltas


def _merge_deltas(blockmodel: Blockmodel, r: np.ndarray, s: np.ndarray, structure: tuple) -> np.ndarray:
    """Likelihood ΔDL of merging each ``r[k]`` into ``s[k] != r[k]``."""
    m = r.size
    num_blocks = np.int64(blockmodel.num_blocks)
    d_out = blockmodel.block_out_degrees
    d_in = blockmodel.block_in_degrees
    (row_j, row_v, row_ptr), (col_i, col_v, col_ptr) = structure

    # ------------------------------------------------------------------
    # Old region, laid out per candidate as [row r | row s | col r | col s]
    # (columns skip entries whose row index is r or s), each ascending —
    # the scalar kernel's exact order.
    # ------------------------------------------------------------------
    ids_parts: list = []
    vals_parts: list = []
    denom_parts: list = []
    for blocks_arr in (r, s):
        cand, flat = _gather_segments(row_ptr, blocks_arr)
        j = row_j[flat]
        ids_parts.append(cand)
        vals_parts.append(row_v[flat])
        denom_parts.append(d_out[blocks_arr[cand]] * d_in[j])
    for blocks_arr in (r, s):
        cand, flat = _gather_segments(col_ptr, blocks_arr)
        i = col_i[flat]
        keep = (i != r[cand]) & (i != s[cand])
        cand, i, flat = cand[keep], i[keep], flat[keep]
        ids_parts.append(cand)
        vals_parts.append(col_v[flat])
        denom_parts.append(d_out[i] * d_in[blocks_arr[cand]])
    old_sums = _merge_region_sums(
        np.concatenate(ids_parts), np.concatenate(vals_parts), np.concatenate(denom_parts), m
    )

    # ------------------------------------------------------------------
    # Merged region: per candidate the merged row then the merged column,
    # with index r folded into s, entries ascending (np.unique sorts the
    # ``candidate·B + index`` keys, giving exactly the scalar iteration
    # order) and integer-exact aggregation.
    # ------------------------------------------------------------------
    merged_dout = d_out[r] + d_out[s]
    merged_din = d_in[r] + d_in[s]

    def _merged_axis(ptr, idx_arr, val_arr):
        cand_r, flat_r = _gather_segments(ptr, r)
        cand_s, flat_s = _gather_segments(ptr, s)
        cand = np.concatenate([cand_r, cand_s])
        idx = np.concatenate([idx_arr[flat_r], idx_arr[flat_s]])
        val = np.concatenate([val_arr[flat_r], val_arr[flat_s]])
        idx = np.where(idx == r[cand], s[cand], idx)
        keys = cand * num_blocks + idx
        unique_keys, inverse = np.unique(keys, return_inverse=True)
        agg = np.bincount(inverse, weights=val, minlength=unique_keys.shape[0]).astype(np.int64)
        return unique_keys // num_blocks, unique_keys % num_blocks, agg

    row_cand, row_idx, row_agg = _merged_axis(row_ptr, row_j, row_v)
    row_denom = merged_dout[row_cand] * np.where(
        row_idx == s[row_cand], merged_din[row_cand], d_in[row_idx]
    )
    col_cand, col_idx, col_agg = _merged_axis(col_ptr, col_i, col_v)
    keep = (col_idx != r[col_cand]) & (col_idx != s[col_cand])
    col_cand, col_idx, col_agg = col_cand[keep], col_idx[keep], col_agg[keep]
    col_denom = d_out[col_idx] * merged_din[col_cand]

    new_sums = _merge_region_sums(
        np.concatenate([row_cand, col_cand]),
        np.concatenate([row_agg, col_agg]),
        np.concatenate([row_denom, col_denom]),
        m,
    )

    return old_sums - new_sums
