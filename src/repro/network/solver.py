"""Max-min fair-share solver core: one problem shape, two fill kernels.

Every max-min solve — :meth:`Fabric.max_min_rates` and each component
solve of :class:`~repro.network.engine.FabricEngine` — is posed the
same way: a flow×link incidence in CSR form (:class:`CompiledIncidence`,
row = flow, column = directed link) plus a per-column capacity vector.
The solver backend picks only the progressive-filling kernel that turns
that problem into per-row rates (:func:`fill_kernel`):

* ``python`` — :func:`fill_rates_python`, the reference: a pure-python
  loop over the raw CSR rows.  It derives its own per-link counts and
  member lists from ``indptr``/``mem_cols``/``alive`` and never reads
  the compiled column view or the counts :meth:`CompiledIncidence.retire`
  patches, so it stays an independent oracle for both;
* ``vector`` — :func:`progressive_fill_vector`, a numpy kernel with
  vectorized share computation, batched bottleneck-group freezing via
  boolean masks, and scatter-subtract of frozen rates.

**Choosing a kernel.**  ``vector`` always runs, except inside a
``with use_backend("python"):`` block — the one selector, used by the
backend differential and the exactness tests.  A
:class:`~repro.network.engine.FabricEngine` keeps the backend of the
scope it was built in, so it never mixes kernels mid-run;
:func:`solve_incidence` reads the scope at each call.  The one input
that carries a backend name across a process boundary, the
``validation-case`` farm param, re-enters the scope on the far side.

**Bit-identity contract.**  The two kernels return *identical floats*,
not merely close ones, because the solve is scan-order independent and
the vector kernel performs exactly the element-wise operations of the
reference:

* the bottleneck share is a pure ``min`` over per-link divisions
  ``remaining / count`` — comparison only, no rounding, so any scan
  order finds the same value;
* the tied bottleneck group is *every* live link whose share equals
  that minimum (and the minimum is strictly below the line rate), so
  tie detection is order-preserving equality, never an accumulated
  reduction;
* frozen flows subtract the same share once per (flow, hop)
  membership; the kernel uses ``np.subtract.at`` — the unbuffered
  scatter that applies per duplicate index — which reproduces the
  reference's repeated per-flow subtractions bit-for-bit.  A
  reassociated update (``remaining -= k * share``) would not.

**Resuming a fill.**  A kernel handed a :class:`FillRecord` starts
from its prefix instead of round 0 and records the round each row
freezes in.  :meth:`FillRecord.resume` keeps the prefix when the
capacity vector is bit-equal to the last fill's and the only change
since is retired rows.  Rounds before ``r``, the earliest round a
retired row froze in, are then the cold fill's rounds exactly:

* a column of a retired row was never tied before ``r`` (else that
  row would have frozen there), so its share stayed above the minimum;
* retiring a row only lowers its columns' counts, and with a
  non-negative residue a lower count never lowers a share (division is
  monotone in the divisor), so those columns stay above the minimum,
  and every other column sees exactly the old counts and subtractions;
* the prefix is replayed with one ``np.subtract.at`` over the member
  columns the record kept in freeze order — round-major, and the
  kernel's own sorted-row order within a round — so each column sees
  the cold fill's subtractions in the cold fill's order, bit for bit.

A prefix with a negative share or leaving a negative residue on a
retired row's column is dropped (``r = 0``): a smaller count could
then lower a share.  From round ``r`` the kernel runs its normal loop,
and its state there — residue, counts, unfrozen rows, live columns —
is the cold fill's, so rates, freeze rounds and the ``link_visits`` of
the rounds it runs are the cold fill's too.  A fresh record is the
cold start, ``r = 0``.

The validation harness pins this contract on every fuzz profile
(the solver-backends half of ``repro.validation.check_replay``):
finish times, event traces and :class:`SolverStats` must compare
``==`` across backends, on top of the engine-vs-batch and
flat-vs-folded ``==`` differentials that both backends must keep
exact.

**Work accounting.**  :class:`SolverStats.link_visits` counts with one
ruler across paths and backends:

* +1 per (flow, hop) membership materialized into solver structures —
  the batch path rebuilds them every solve, the engine registers them
  once per flow arrival/reroute and re-materializes them per
  component compile;
* +1 per link capacity loaded into a solve's ``remaining`` vector;
* +1 per live link per progressive-filling iteration.

The per-hop subtractions of the freeze step are deliberately uncounted
(they are proportional to the memberships already counted at
materialization).  Rounds replayed from a :class:`FillRecord` are not
link visits either: a replay only makes those uncounted subtractions,
and the capacity load of a resumed solve is counted as for any solve.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as _np

__all__ = [
    "HAVE_NUMPY",
    "CompiledIncidence",
    "FillRecord",
    "IncidenceIndex",
    "SolverStats",
    "compile_component",
    "fill_kernel",
    "fill_rates_python",
    "progressive_fill_vector",
    "resolve_backend",
    "solve_incidence",
    "use_backend",
]

#: numpy is a hard dependency; the flag stays exported because the
#: benchmark child process (``bench/child.py``) reads it.
HAVE_NUMPY = True

#: A directed link traversal; opaque to the solver (any hashable).
Hop = Hashable


@dataclass
class SolverStats:
    """Work counters for the max-min rate solver.

    ``link_visits`` counts every per-link unit of solver work — a
    (flow, hop) membership materialization, a capacity load, or one
    fair-share evaluation inside the progressive-filling loop.  The
    epoch-global batch path and the incremental engine count with the
    same ruler (see the module docstring), so their totals are
    directly comparable.
    """

    events: int = 0
    solves: int = 0
    link_visits: int = 0
    flows_resolved: int = 0
    components_solved: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "events": self.events,
            "solves": self.solves,
            "link_visits": self.link_visits,
            "flows_resolved": self.flows_resolved,
            "components_solved": self.components_solved,
        }


# --------------------------------------------------------------------------
# Backend selection
# --------------------------------------------------------------------------

#: The kernel of the innermost :func:`use_backend` scope; outside any
#: scope it is ``vector``, the production kernel.  A context variable,
#: so a scope covers only the thread (or asyncio task) that entered it.
_BACKEND: ContextVar[str] = ContextVar("repro_solver_backend",
                                       default="vector")


def resolve_backend(name: Optional[str] = None) -> str:
    """*name* checked against the two kernels, or with ``None`` the
    backend of the current :func:`use_backend` scope."""
    if name is None:
        return _BACKEND.get()
    if name not in ("python", "vector"):
        raise ValueError(
            f"unknown solver backend {name!r}; expected 'python' or "
            f"'vector' (choose one with repro.network.solver."
            f"use_backend)")
    return name


@contextmanager
def use_backend(name: Optional[str]) -> Iterator[None]:
    """Run the block with *name*'s fill kernel (no-op for ``None``).

    The only way to pick a kernel.  A
    :class:`~repro.network.engine.FabricEngine` keeps the backend of
    the scope it was built in; :func:`solve_incidence` reads the scope
    when it is called.
    """
    if name is None:
        yield
        return
    token = _BACKEND.set(resolve_backend(name))
    try:
        yield
    finally:
        _BACKEND.reset(token)


def fill_kernel(backend: str) -> Callable:
    """The progressive-filling kernel of a resolved *backend* name.

    Kernels are called as ``kernel(inc, remaining, line_rate, stats,
    record)`` and return the rate per row of *inc*; the optional
    :class:`FillRecord` is the start state and receives each row's
    freeze round.  The kernel is read from this
    module's globals at call time, so a wrapper installed over
    ``progressive_fill_vector`` (the bench tracer) is the one that runs.
    """
    return fill_rates_python if backend == "python" \
        else progressive_fill_vector


# --------------------------------------------------------------------------
# Incidence representation
# --------------------------------------------------------------------------

def _concat_ranges(starts, lens):
    """Concatenate ``arange(starts[i], starts[i]+lens[i])`` ranges."""
    total = int(lens.sum())
    if total == 0:
        return _np.empty(0, dtype=_np.int64)
    offsets = _np.cumsum(lens) - lens
    return _np.repeat(starts - offsets, lens) + _np.arange(total)


class CompiledIncidence:
    """A flow×link incidence matrix in CSR form, both directions.

    Rows are flows (in the order of ``fids``), columns are directed
    links local to this problem.  ``indptr``/``mem_cols`` is the
    row-major CSR; a column-major view (``link -> member rows``) is
    derived once at construction so tie-group freezing can expand
    bottleneck links to their member flows without scanning.

    The engine retires rows in place as flows complete
    (:meth:`retire` flips ``alive`` and patches ``base_count``), so a
    compiled component survives arbitrarily many completion events
    without recompiling.
    """

    __slots__ = ("fids", "indptr", "mem_cols", "n_links", "row_lens",
                 "l_indptr", "l_lens", "l_rows", "base_count", "alive",
                 "n_alive", "row_of")

    def __init__(self, fids: Sequence[int], indptr, mem_cols,
                 n_links: int):
        np_ = _np
        self.fids = list(fids)
        self.indptr = np_.asarray(indptr, dtype=np_.int64)
        self.mem_cols = np_.asarray(mem_cols, dtype=np_.int64)
        self.n_links = int(n_links)
        n = len(self.fids)
        self.row_lens = self.indptr[1:] - self.indptr[:-1]
        counts = np_.bincount(self.mem_cols, minlength=self.n_links
                              ).astype(np_.int64)
        self.l_lens = counts
        l_indptr = np_.zeros(self.n_links + 1, dtype=np_.int64)
        np_.cumsum(counts, out=l_indptr[1:])
        self.l_indptr = l_indptr
        mem_rows = np_.repeat(np_.arange(n, dtype=np_.int64),
                              self.row_lens)
        order = np_.argsort(self.mem_cols, kind="stable")
        self.l_rows = mem_rows[order]
        self.base_count = counts.copy()
        self.alive = np_.ones(n, dtype=bool)
        self.n_alive = n
        self.row_of = {fid: row for row, fid in enumerate(self.fids)}

    @property
    def n_rows(self) -> int:
        return len(self.fids)

    @property
    def nnz(self) -> int:
        return int(self.mem_cols.shape[0])

    # Tie groups and freeze sets are usually a handful of entries, so
    # the CSR expanders take a sliced python loop below a small-N
    # threshold — same values, a fraction of the fixed numpy-call
    # overhead — and the vectorized range concat above it.
    _SMALL_N = 64

    def rows_cols(self, rows):
        """Concatenated member columns of *rows*."""
        indptr = self.indptr
        if 0 < rows.shape[0] <= self._SMALL_N:
            mem = self.mem_cols
            return _np.concatenate(
                [mem[indptr[row]:indptr[row + 1]]
                 for row in rows.tolist()])
        return self.mem_cols[
            _concat_ranges(indptr[rows], self.row_lens[rows])]

    def link_rows(self, cols):
        """Concatenated member rows of links *cols*."""
        indptr = self.l_indptr
        if 0 < cols.shape[0] <= self._SMALL_N:
            rows = self.l_rows
            return _np.concatenate(
                [rows[indptr[col]:indptr[col + 1]]
                 for col in cols.tolist()])
        return self.l_rows[
            _concat_ranges(indptr[cols], self.l_lens[cols])]

    def retire(self, fid: int) -> bool:
        """Mark *fid*'s row dead and drop its memberships from the
        active counts.  Returns False when the flow is not a live row
        of this problem."""
        row = self.row_of.get(fid)
        if row is None or not self.alive[row]:
            return False
        self.alive[row] = False
        self.n_alive -= 1
        cols = self.mem_cols[self.indptr[row]:self.indptr[row + 1]]
        _np.subtract.at(self.base_count, cols, 1)
        return True

    def live_pieces(self) -> List[Any]:
        """The live rows, split into the connected pieces they form.

        Two live rows are connected when a chain of live rows sharing
        columns joins them; dead rows join nothing.  Returns one
        ascending row array per piece, ordered by first row (none when
        no row is live).

        Min-label propagation: every column takes the least label of
        its live rows, every row the least label of its columns, then
        pointer jumping (a label is a row index no larger than its
        row's, so ``label[label]`` never rises) collapses chains.  At
        the fixed point each piece carries its first row as its label.
        """
        np_ = _np
        n = self.n_rows
        live = np_.flatnonzero(self.alive)
        nnz = self.nnz
        if live.shape[0] <= 1 or nnz == 0:
            return [live[i:i + 1] for i in range(live.shape[0])]
        # label[n] is the sentinel dead rows point at: it is larger
        # than every live label, so it never lowers a column.
        label = np_.full(n + 1, n, dtype=np_.int64)
        label[live] = live
        dead = np_.flatnonzero(~self.alive)
        # reduceat runs over non-empty segments only: rows without
        # memberships keep their own label, columns without members
        # are never read.
        cols = np_.flatnonzero(self.l_lens)
        col_starts = self.l_indptr[cols]
        rows = np_.flatnonzero(self.row_lens)
        row_starts = self.indptr[rows]
        col = np_.full(self.n_links, n, dtype=np_.int64)
        while True:
            col[cols] = np_.minimum.reduceat(label[self.l_rows], col_starts)
            new = label.copy()
            new[rows] = np_.minimum.reduceat(col[self.mem_cols], row_starts)
            new[dead] = n
            while True:
                jumped = new[new]
                if np_.array_equal(jumped, new):
                    break
                new = jumped
            if np_.array_equal(new, label):
                break
            label = new
        labels = label[live]
        order = np_.argsort(labels, kind="stable")
        cuts = np_.flatnonzero(np_.diff(labels[order])) + 1
        return np_.split(live[order], cuts)


class FillRecord:
    """The freeze order one fill of a :class:`CompiledIncidence` left
    behind, and what the fill started from.

    ``round_of[row]`` is the round in which the row froze (-1: dead, or
    not frozen yet), so after a fill ``round_of >= 0`` is the live-row
    mask the fill saw.  ``shares[k]`` is the share round *k* froze its
    rows at — the line rate for a closing round of line-rate-limited
    rows.  ``cols`` holds the member columns of the rows each round
    froze, round after round and in sorted-row order within a round;
    round *k*'s run is ``cols[starts[k]:starts[k + 1]]`` (a closing
    round adds none).  ``capacity`` is the capacity vector the fill
    started from.  Both kernels read a record as their start state and
    append the rounds they run to it; a fresh record is a cold start.
    """

    __slots__ = ("capacity", "round_of", "shares", "cols", "starts")

    def __init__(self, inc: CompiledIncidence):
        self.capacity = None
        self.round_of = _np.full(inc.n_rows, -1, dtype=_np.int64)
        self.shares: List[float] = []
        self.cols = _np.empty(inc.nnz, dtype=_np.int64)
        self.starts: List[int] = [0]

    def resume(self, inc: CompiledIncidence, capacity):
        """Ready the next fill of *inc* from *capacity*.

        Keeps the rounds of the last fill that the changes since cannot
        reach, replays their subtractions, and returns the residue to
        hand a kernel together with this record.  The prefix survives
        only when *capacity* is bit-equal to the last fill's and the
        only change since is retired rows: then rounds before
        ``r = min(round of the retired rows)`` are unchanged (see the
        module docstring).  Otherwise ``r = 0``, a cold start.
        *capacity* is kept, not consumed.
        """
        np_ = _np
        round_of = self.round_of
        r = 0
        if self.capacity is not None and np_.array_equal(
                self.capacity.view(np_.int64), capacity.view(np_.int64)):
            retired = np_.flatnonzero((round_of >= 0) & ~inc.alive)
            r = int(round_of[retired].min()) if retired.size \
                else len(self.shares)
        remaining = capacity.copy()
        if 0 < r < len(self.shares):
            # ``cols`` is round-major: each column sees the
            # subtractions of a cold fill in the same order.
            share = np_.array(self.shares[:r])
            starts = np_.array(self.starts[:r + 1])
            np_.subtract.at(remaining, self.cols[:starts[-1]],
                            np_.repeat(share, np_.diff(starts)))
            if share.min() < 0 or \
                    (remaining[inc.rows_cols(retired)] < 0).any():
                # A negative residue: a smaller count could lower a
                # retired column's share, so the prefix may not hold.
                r = 0
                remaining = capacity.copy()
        round_of[round_of >= r] = -1
        del self.shares[r:]
        del self.starts[r + 1:]
        self.capacity = capacity
        return remaining


# --------------------------------------------------------------------------
# Fill kernels
# --------------------------------------------------------------------------

def fill_rates_python(inc: CompiledIncidence, remaining,
                      line_rate: float,
                      stats: Optional[SolverStats] = None,
                      record: Optional[FillRecord] = None):
    """The reference kernel: progressive filling in pure python.

    Reads only the raw rows of *inc* — ``indptr``, ``mem_cols`` and
    ``alive``, turned into lists — and derives its own per-link member
    counts and member lists from the rows still to freeze, so comparing
    it with the vector kernel checks the compiled column view and the
    counts :meth:`CompiledIncidence.retire` patches instead of trusting
    them.  *remaining* is the per-link capacity (not consumed).
    Returns the rate per row as a float64 array (dead rows 0.0).

    Repeatedly: find the tightest link (smallest fair share among its
    unfrozen flows), freeze every flow crossing a link tied at that
    share, remove the consumed capacity, continue.  The source
    line-rate cap is modelled as a virtual per-flow link.  Active
    member counts are maintained incrementally and fully-frozen links
    are pruned from the scan list, so each iteration costs
    O(live links) instead of O(total memberships).

    With a *record* the fill starts from its replayed prefix (see
    :meth:`FillRecord.resume`; *remaining* is then the replayed
    residue) and appends the rounds it runs to it.
    """
    if record is None:
        record = FillRecord(inc)
    indptr = inc.indptr.tolist()
    mem_cols = inc.mem_cols.tolist()
    alive = inc.alive.tolist()
    remaining = remaining.tolist()
    round_of = record.round_of.tolist()
    shares = record.shares
    starts = record.starts
    # Columns of the rows this call freezes, appended after the prefix.
    base = starts[-1]
    frozen_cols: List[int] = []
    n_links = len(remaining)
    cols_of: List[List[int]] = []
    active_count = [0] * n_links
    members: List[List[int]] = [[] for _ in range(n_links)]
    unfrozen = set()
    rates = [0.0] * len(alive)
    for row, live_row in enumerate(alive):
        cols = mem_cols[indptr[row]:indptr[row + 1]]
        cols_of.append(cols)
        if not live_row:
            continue
        if round_of[row] >= 0:
            rates[row] = shares[round_of[row]]
            continue
        unfrozen.add(row)
        for col in cols:
            active_count[col] += 1
            members[col].append(row)
    scan = list(range(n_links))
    while unfrozen:
        bottleneck_share = line_rate
        tied: List[int] = []
        live = []
        for col in scan:
            count = active_count[col]
            if not count:
                continue
            live.append(col)
            share = remaining[col] / count
            if share < bottleneck_share:
                bottleneck_share = share
                tied = [col]
            elif tied and share == bottleneck_share:
                tied.append(col)
        scan = live
        if stats is not None:
            stats.link_visits += len(live)
        if not tied:
            # Every remaining flow is line-rate limited.
            for row in unfrozen:
                rates[row] = line_rate
                round_of[row] = len(shares)
            shares.append(line_rate)
            starts.append(base + len(frozen_cols))
            break
        # Water-filling: every link tied at the bottleneck share
        # saturates together (freezing one tied link leaves the
        # others' shares unchanged), so symmetric workloads freeze
        # whole tie groups per iteration instead of one link each.
        frozen_now = set()
        for col in tied:
            frozen_now.update(members[col])
        frozen_now &= unfrozen
        for row in sorted(frozen_now):
            rates[row] = bottleneck_share
            round_of[row] = len(shares)
            frozen_cols.extend(cols_of[row])
            for col in cols_of[row]:
                remaining[col] -= bottleneck_share
                active_count[col] -= 1
        shares.append(bottleneck_share)
        starts.append(base + len(frozen_cols))
        unfrozen -= frozen_now
    record.round_of[:] = round_of
    record.cols[base:base + len(frozen_cols)] = frozen_cols
    return _np.array(rates, dtype=_np.float64)


def progressive_fill_vector(inc: CompiledIncidence, remaining,
                            line_rate: float,
                            stats: Optional[SolverStats] = None,
                            record: Optional[FillRecord] = None):
    """The numpy kernel: progressive filling over compiled arrays.

    *remaining* is the per-link unconsumed capacity (float64, consumed
    in place — pass a copy).  Returns the rate per row (dead rows stay
    at 0.0).  Every operation is element-wise or an order-independent
    comparison min, so the result is bit-identical to
    :func:`fill_rates_python` on the same problem — see the module
    docstring for why.  A *record* is read and extended exactly as
    the reference kernel does.
    """
    np_ = _np
    n = inc.n_rows
    if record is None:
        record = FillRecord(inc)
    round_of = record.round_of
    shares = record.shares
    starts = record.starts
    frozen_cols = record.cols
    end = starts[-1]
    rates = np_.zeros(n, dtype=np_.float64)
    counts = inc.base_count.copy()
    unfrozen = inc.alive.copy()
    if shares:
        # Rows of the replayed prefix keep their rounds' shares and
        # leave the counts of their columns.
        done = np_.flatnonzero(round_of >= 0)
        rates[done] = np_.array(shares)[round_of[done]]
        unfrozen[done] = False
        counts -= np_.bincount(frozen_cols[:end], minlength=inc.n_links)
        n_unfrozen = int(inc.n_alive) - int(done.size)
    else:
        n_unfrozen = int(inc.n_alive)
    scan = np_.arange(inc.n_links, dtype=np_.int64)
    while n_unfrozen:
        live_counts = counts[scan]
        live = live_counts > 0
        scan = scan[live]
        if stats is not None:
            stats.link_visits += int(scan.size)
        if scan.size:
            shares_now = remaining[scan] / live_counts[live]
            min_share = shares_now.min()
        else:
            min_share = line_rate
        if not (min_share < line_rate):
            # Every remaining flow is line-rate limited.
            rates[unfrozen] = line_rate
            round_of[unfrozen] = len(shares)
            shares.append(line_rate)
            starts.append(end)
            break
        tied = scan[shares_now == min_share]
        cand = inc.link_rows(tied)
        cand = cand[unfrozen[cand]]
        # A flow crossing several tied links must freeze (and
        # subtract) exactly once — same dedupe as the reference's
        # frozen_now set union (inlined sorted-unique: ``np.unique``'s
        # wrapper chain costs more than the whole small array).
        cand.sort(kind="stable")
        if cand.shape[0] > 1:
            keep = np_.empty(cand.shape[0], dtype=bool)
            keep[0] = True
            np_.not_equal(cand[1:], cand[:-1], out=keep[1:])
            rows = cand[keep]
        else:
            rows = cand
        rates[rows] = min_share
        round_of[rows] = len(shares)
        shares.append(float(min_share))
        unfrozen[rows] = False
        n_unfrozen -= int(rows.size)
        cols = inc.rows_cols(rows)
        np_.subtract.at(remaining, cols, min_share)
        np_.subtract.at(counts, cols, 1)
        frozen_cols[end:end + cols.shape[0]] = cols
        end += cols.shape[0]
        starts.append(end)
    return rates


def solve_incidence(hops_of: Mapping[int, Sequence[Hop]],
                    remaining: Mapping[Hop, float],
                    line_rate: float,
                    stats: Optional[SolverStats] = None
                    ) -> Dict[int, float]:
    """One-shot solve from dict-shaped inputs (batch adapter).

    *remaining* defines the link universe and initial capacities (its
    insertion order becomes the column order); *hops_of* the flows.
    The problem is compiled once and handed to the kernel of the
    current :func:`use_backend` scope; the input dict is not consumed.
    Returns the rate per flow id — bit-identical across backends.
    """
    col_of: Dict[Hop, int] = {}
    for hop in remaining:
        col_of[hop] = len(col_of)
    fids = []
    mem_cols: List[int] = []
    indptr = [0]
    for fid, hops in hops_of.items():
        fids.append(fid)
        for hop in hops:
            mem_cols.append(col_of[hop])
        indptr.append(len(mem_cols))
    inc = CompiledIncidence(fids, indptr, mem_cols, len(col_of))
    capacity = _np.fromiter(remaining.values(), dtype=_np.float64,
                            count=len(col_of))
    kernel = fill_kernel(resolve_backend())
    out = kernel(inc, capacity, line_rate, stats).tolist()
    return {fid: out[row] for row, fid in enumerate(fids)}


# --------------------------------------------------------------------------
# Persistent incidence index (engine adapter support)
# --------------------------------------------------------------------------

class IncidenceIndex:
    """Persistent flow/link column universe for an incremental solver.

    Directed links get stable integer columns on first occupancy; the
    per-column effective capacity is patched in place as links fail,
    degrade, or change PFC factors (the engine patches exactly its
    dirty links).  Per-flow column arrays are registered once per
    arrival/reroute, so compiling a component is a pure array
    concatenation plus one ``np.unique`` — no per-membership python.
    """

    def __init__(self) -> None:
        np_ = _np
        self._col_of: Dict[Hop, int] = {}
        self._capacity = np_.zeros(64, dtype=np_.float64)
        self._flow_cols: Dict[int, Any] = {}

    def ensure_col(self, hop: Hop) -> int:
        col = self._col_of.get(hop)
        if col is None:
            col = len(self._col_of)
            self._col_of[hop] = col
            if col >= self._capacity.shape[0]:
                grown = _np.zeros(2 * self._capacity.shape[0],
                                  dtype=_np.float64)
                grown[:self._capacity.shape[0]] = self._capacity
                self._capacity = grown
        return col

    def set_capacity(self, hop: Hop, value: float) -> None:
        self._capacity[self.ensure_col(hop)] = value

    def register_flow(self, fid: int, hops: Sequence[Hop]) -> None:
        self._flow_cols[fid] = _np.fromiter(
            (self.ensure_col(hop) for hop in hops),
            dtype=_np.int64, count=len(hops))

    def drop_flow(self, fid: int) -> None:
        self._flow_cols.pop(fid, None)

    def flow_cols(self, fid: int):
        return self._flow_cols[fid]

    def gather_capacity(self, cols):
        """Fresh per-solve ``remaining`` vector for local columns."""
        return self._capacity[cols]


def compile_component(fids: Sequence[int],
                      index: IncidenceIndex
                      ) -> Tuple[CompiledIncidence, Any]:
    """Compile one component's flows into a local incidence problem.

    Returns ``(inc, l2g)``: the compiled incidence over local columns
    plus the local→global column map used to gather capacities per
    solve.  Local column order is ascending global column id — the
    solve result is scan-order independent, so this changes nothing
    observable.
    """
    np_ = _np
    fids = list(fids)
    col_arrays = [index.flow_cols(fid) for fid in fids]
    lens = np_.fromiter((arr.shape[0] for arr in col_arrays),
                        dtype=np_.int64, count=len(col_arrays))
    indptr = np_.zeros(len(fids) + 1, dtype=np_.int64)
    np_.cumsum(lens, out=indptr[1:])
    if col_arrays:
        all_cols = np_.concatenate(col_arrays)
    else:
        all_cols = np_.empty(0, dtype=np_.int64)
    l2g, local = np_.unique(all_cols, return_inverse=True)
    inc = CompiledIncidence(fids, indptr, local.astype(np_.int64),
                            int(l2g.shape[0]))
    return inc, l2g
