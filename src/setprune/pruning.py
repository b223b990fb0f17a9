"""Single-pass ground-set pruning for one budget or a geometric budget ladder.

The single-budget pruner streams the ground set once, keeping an element
when its marginal gain is at least ``delta * c(e) * f(A) / kappa``, tracking
the best feasible singleton on the side, and discarding the previous
checkpoint's elements whenever the running value has grown by more than a
factor ``n / epsilon`` since that checkpoint. The multi-budget variant runs
one such pruner per rung of a geometric budget ladder and returns the union
of their outputs. Both go through one streaming driver: ``quickprune_single``
is the one-rung case of the driver that ``quickprune`` runs over the ladder.
That pass reads the stream in blocks of ``_BLOCK`` ids, kept as arrays (a
``range`` inside the ground set is sliced, not read id by id): elements
over every budget are dropped at the block, the rest have their singleton
values asked in one counted batch, and one rule decides which rungs share a
marginal. When the oracle's states answer a batch with one numpy gather
(cut, undirected influence), a screen decides the block in stretches: numpy
marks the elements that may change some rung, and one scalar loop walks
only those, repeating the element-by-element float operations on their
gathered integer gains, patching the gains that each add lowers from the
states' ``links``, and committing the adds in bulk. Only single elements,
where a walk must stop, become Python tuples. Every element is charged
exactly the queries the element-by-element pass asks, so outputs, events,
every float and query counts are unchanged.

Closed-form companions to the pruners live here as well: the pruned-set
size bound, the worst-case retention ratios, the ladder-size formula, the
big-item cost check, and the geometric-growth step count they rest on.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, checked_costs, cost_array, require_finite
from .objectives import _checked_array, _marginals, oracle_state

__all__ = [
    "PruneParams",
    "LadderParams",
    "DeletionEvent",
    "SinglePrunerState",
    "PruneReport",
    "process_element",
    "quickprune_single",
    "quickprune",
    "budget_ladder",
    "ladder_size",
    "size_bound",
    "alpha_single",
    "alpha_multi",
    "check_nhi",
    "geometric_recovery_steps",
]

# Tolerance for the ladder's boundary rung; absorbs float drift in the
# repeated multiplication without admitting a genuinely out-of-range rung.
_LADDER_RTOL = 1e-12

# Most rungs a budget ladder may have; each rung runs its own pruner over the
# whole stream, and the ladder is counted before any rung is built.
MAX_RUNGS = 10_000

# Stream ids `_prune` reads at a time, taking their costs and singleton
# values in one batch; the screen's stretches double up to a block. On the
# bench's cut workload 1,024 ran slower, 4,096 no faster.
_BLOCK = 2048

# Admitted elements in the screen's first stretch; a stretch walked to its
# end doubles the next one.
_LOOK = 16


def _check_ladder_args(kappa_min: float, kappa_max: float, eta: float) -> int:
    """Validate ladder arguments; return the rung count, taken in log space."""
    require_finite(kappa_min=kappa_min, kappa_max=kappa_max, eta=eta)
    if not 0 < kappa_min <= kappa_max:
        raise InputError("need 0 < kappa_min <= kappa_max")
    if not 0 < eta <= 0.5:
        raise InputError("eta must lie in (0, 1/2]")
    if 1.0 - eta == 1.0:
        raise InputError(f"eta {eta!r} is too small for the ladder to shrink")
    lo = (1.0 - eta) * kappa_min
    if lo < sys.float_info.min:
        # Below the normal range a rung times (1 - eta) can round back to
        # itself, and the ladder would never reach its cutoff.
        raise InputError(f"lower cutoff (1 - eta) * kappa_min = {lo!r} underflows")
    span = math.log(kappa_max) - math.log(lo)
    rungs = int(math.floor(span / -math.log(1.0 - eta) + 1e-9)) + 1
    if rungs > MAX_RUNGS:
        raise InputError(f"budget ladder would have {rungs} rungs, more than {MAX_RUNGS}")
    return rungs


@dataclass(frozen=True)
class PruneParams:
    """Single-budget pruner knobs: budget, add-threshold scale, deletion rate."""

    kappa: float
    delta: float
    epsilon: float

    def __post_init__(self):
        require_finite(kappa=self.kappa, delta=self.delta, epsilon=self.epsilon)
        if self.kappa <= 0:
            raise InputError("kappa must be positive")
        if self.delta <= 0:
            raise InputError("delta must be positive")
        if self.epsilon <= 0:
            raise InputError("epsilon must be positive")


@dataclass(frozen=True)
class LadderParams:
    """Multi-budget pruner knobs over the range [kappa_min, kappa_max]."""

    kappa_min: float
    kappa_max: float
    eta: float
    delta: float
    epsilon: float

    def __post_init__(self):
        _check_ladder_args(self.kappa_min, self.kappa_max, self.eta)
        PruneParams(self.kappa_max, self.delta, self.epsilon)  # a rung's delta/epsilon checks


@dataclass(frozen=True)
class DeletionEvent:
    """One firing of the checkpoint rule.

    ``removed`` is empty for the start-up firing that merely installs the
    first checkpoint (nothing existed to delete yet).
    """

    stream_pos: int
    trigger: int
    removed: tuple
    value_before: float
    value_after: float


class SinglePrunerState:
    """Mutable state of one single-budget pruner.

    Invariants kept by ``process_element``: the checkpoint is always a prefix
    of ``working`` (between firings only appends happen, and ``working``
    holds no duplicates), so it is stored as its length; cached values equal
    fresh oracle evaluations of their sets; every retained element and the
    best singleton fit the budget. ``oracle_state`` is the oracle's
    per-caller state for the working set, made on the first query and made
    again from the survivors at each deletion.
    """

    __slots__ = (
        "working", "working_set", "checkpoint_len",
        "best_single", "f_working", "f_checkpoint", "f_best_single",
        "events", "deletions", "processed", "oracle_state",
    )

    def __init__(self):
        self.working = []           # retained elements, in add order
        self.working_set = set()
        self.checkpoint_len = 0     # working[:checkpoint_len] is the checkpoint
        self.best_single = None
        self.f_working = 0.0
        self.f_checkpoint = 0.0
        self.f_best_single = 0.0
        self.events = []
        self.deletions = 0
        self.processed = 0
        self.oracle_state = None

    def pruned_set(self) -> set:
        out = set(self.working_set)
        if self.best_single is not None:
            out.add(self.best_single)
        return out


@dataclass
class PruneReport:
    """What a pruning run did: output, query cost, deletion activity."""

    pruned: frozenset
    oracle_calls: int
    deletions: int
    per_budget_sizes: dict
    elapsed: float
    n: int
    events: list = field(default_factory=list)
    instrumentation: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "pruned_size": len(self.pruned),
            "oracle_calls": self.oracle_calls,
            "deletions": self.deletions,
            "per_budget_sizes": {str(k): v for k, v in self.per_budget_sizes.items()},
            "elapsed_seconds": self.elapsed,
            "n": self.n,
            "deletion_log": [
                {
                    "stream_pos": e.stream_pos,
                    "trigger": e.trigger,
                    "removed": sorted(e.removed),
                    "value_before": e.value_before,
                    "value_after": e.value_after,
                }
                for e in self.events
            ],
        }


def process_element(state: SinglePrunerState, oracle, cost_fn, params: PruneParams,
                    n: int, e: int) -> SinglePrunerState:
    """Feed one element through the single-budget pruning rules, in order:
    budget guard, add rule, best-singleton update, checkpoint deletion.

    The one-rung case of ``_steps``, at stream position ``state.processed``
    (which it advances by one). Costs at most two fresh oracle queries (one
    when the working set is empty, where the singleton value doubles as the
    marginal), plus one evaluation of the survivors when a deletion removes
    elements and rebuilds the oracle state from them. Raises InputError when
    ``cost_fn(e)`` is not positive (NaN included).
    """
    if n < 1:
        raise InputError("ground-set size n must be >= 1")
    state.processed += 1
    (cost,) = checked_costs(cost_fn, (e,))
    if cost <= params.kappa:
        _steps([(params, state)], oracle, n, [(state.processed - 1, e, cost, oracle.eval({e}))])
    return state


def _gain(state: SinglePrunerState, oracle, e, f_single, answers: dict):
    """Query step: the gain of ``e`` for the state's working set.

    ``answers`` maps a cached value to the ``(state, gain)`` pairs already
    asked for ``e`` under an equal value, so rungs with distinct values are
    never compared; a state that ``_shares_gains`` with one of them reuses
    its gain, as the oracle's answer depends only on the set and the cached
    value. Mutates nothing but ``answers`` (and the oracle state, made on
    first use).
    """
    if state.oracle_state is None:
        state.oracle_state = oracle_state(oracle)
    if e in state.working_set:
        # Duplicate of a retained element: marginal is zero by idempotence,
        # which can never satisfy a positive threshold.
        return 0.0
    if not state.working:
        return f_single - state.f_working
    asked = answers.setdefault(state.f_working, [])
    for other, gain in asked:
        if _shares_gains(other, state):
            return gain
    gain = state.oracle_state.marginal(e, state.f_working)
    asked.append((state, gain))
    return gain


def _apply(state: SinglePrunerState, oracle, params: PruneParams, n: int, pos: int, e,
           cost, gain, f_single) -> None:
    """Apply step for ``e`` at stream position ``pos``: add rule,
    best-singleton update, checkpoint deletion; a deletion gives the rung a
    fresh oracle state holding the survivors."""
    if e not in state.working_set and gain >= params.delta * cost * state.f_working / params.kappa:
        state.working.append(e)
        state.working_set.add(e)
        state.f_working += gain
        state.oracle_state.add(e)
    if f_single > state.f_best_single:
        state.best_single = e
        state.f_best_single = f_single
    if state.f_working > (n / params.epsilon) * state.f_checkpoint:
        k = state.checkpoint_len
        removed = tuple(state.working[:k])
        value_before = state.f_working
        if removed:
            state.working = state.working[k:]
            state.working_set.difference_update(removed)
            # States only grow: the survivors go into a new one, made after
            # the old one is dropped (an influence mask is m * n bytes).
            state.oracle_state = None
            state.oracle_state = oracle_state(oracle)
            for v in state.working:
                state.oracle_state.add(v)
            state.f_working = oracle.eval(state.working_set) if state.working_set else 0.0
            state.deletions += 1
        state.checkpoint_len = len(state.working)
        state.f_checkpoint = state.f_working
        state.events.append(DeletionEvent(
            stream_pos=pos,
            trigger=e,
            removed=removed,
            value_before=value_before,
            value_after=state.f_working,
        ))


def _prune(stream, oracle, cost_fn, rungs: list, n: int):
    """Stream every element once through one single-budget pruner per
    ``PruneParams`` in ``rungs`` (all sharing ``epsilon``); return the union
    of their outputs, the run's report and the per-rung states.

    Each distinct question is asked once per element: f({e}) once when some
    rung's budget admits ``e``, and one marginal per group of admitting
    rungs that ``_shares_gains``. The stream is read in blocks of ``_BLOCK``
    ids, checked as one array (``_blocks``), so a bad id raises InputError
    before any element of its block is decided; costs come in one
    ``cost_array`` read. Elements over the largest budget are dropped
    there; the rest have their singleton values asked on an empty oracle
    state in one counted batch. Without a screen that is ``gains(ids,
    0.0)``, and ``_steps`` reads ``(pos, e, cost, f_single)`` (``pos`` the
    stream position) from an iterator. When the states answer with one
    gather (cut, undirected influence), it is ``gather(ids, 0.0)`` and one
    ``count``, and a ``_Screen`` takes the block as arrays and charges what
    it decides the queries ``_steps`` would have asked. Every state's
    ``processed`` is set to the stream length at the end.
    """
    if n < 1:
        raise InputError("ground-set size n must be >= 1")
    if rungs[0].epsilon >= n:
        raise InputError("epsilon must be smaller than the ground-set size")
    start = time.monotonic()
    calls_before = oracle.query_count
    per_rung = [(params, SinglePrunerState()) for params in rungs]
    top = max(params.kappa for params in rungs)
    batch = oracle_state(oracle)  # stays empty: it answers the singleton batches
    screen = _Screen(per_rung, oracle, n, batch) if hasattr(batch, "gather") else None
    pos = 0
    for block in _blocks(stream, oracle.n):
        costs = cost_array(cost_fn, block)
        fit = np.flatnonzero(costs <= top)
        ids, costs = block[fit], costs[fit]
        if screen is None:
            _steps(per_rung, oracle, n, zip((fit + pos).tolist(), ids.tolist(), costs.tolist(),
                                            batch.gains(ids, 0.0)))
        else:
            batch.count(ids.size)
            screen.feed(fit + pos, ids, costs, batch.gather(ids, 0.0))
        pos += block.size
    union, sizes = set(), {}
    for params, state in per_rung:
        state.processed = pos
        out = state.pruned_set()
        sizes[params.kappa] = len(out)
        union |= out
    report = PruneReport(
        pruned=frozenset(union),
        oracle_calls=oracle.query_count - calls_before,
        deletions=sum(state.deletions for _, state in per_rung),
        per_budget_sizes=sizes,
        elapsed=time.monotonic() - start,
        n=n,
        events=[ev for _, state in per_rung for ev in state.events],
    )
    return union, report, [state for _, state in per_rung]


def _blocks(stream, n: int):
    """The stream's ids in checked arrays of ``_BLOCK``. A ``range`` whose
    ids all lie in ``[0, n)`` is sliced into ``arange`` blocks; any other
    stream is read through ``_checked_array``, so its first bad id raises
    InputError before any element of its block is decided."""
    if isinstance(stream, range) and (not stream or 0 <= min(stream[0], stream[-1])
                                      and max(stream[0], stream[-1]) < n):
        for start in range(0, len(stream), _BLOCK):
            part = stream[start:start + _BLOCK]
            yield np.arange(part.start, part.stop, part.step, dtype=np.intp)
        return
    stream = iter(stream)
    while (block := _checked_array(itertools.islice(stream, _BLOCK), n)).size:
        yield block


def _steps(per_rung, oracle, n: int, elements) -> None:
    """Feed each ``(pos, e, cost, f_single)`` of ``elements``, a list or an
    iterator, to every rung, in order: each admitting rung runs the query
    step before any applies it, so the query steps see unmutated states."""
    for pos, e, cost, f_single in elements:
        answers = {}
        admitted = [(params, state, _gain(state, oracle, e, f_single, answers))
                    for params, state in per_rung if cost <= params.kappa]
        for params, state, gain in admitted:
            _apply(state, oracle, params, n, pos, e, cost, gain, f_single)


def _shares_gains(a: SinglePrunerState, b: SinglePrunerState) -> bool:
    """Whether ``b`` reuses the gain asked for ``a``: the same working list
    under an equal cached value of the same type (an int and a float value
    compare equal but give gains of different types; a cut re-evaluated
    after a deletion is an int)."""
    return (type(a.f_working) is type(b.f_working) and a.f_working == b.f_working
            and a.working == b.working)


class _Group:
    """Rungs that ``_shares_gains`` in one stretch: their rows in the
    ladder, their states, the largest of their budgets, and the stretch's
    raw gains against their common set."""

    __slots__ = ("rows", "states", "top", "raw")

    def __init__(self, row: int, state: SinglePrunerState, kappa: float, raw):
        self.rows, self.states, self.top, self.raw = [row], [state], kappa, raw


def _decide(rung, state: SinglePrunerState, window, raw, divisor, links):
    """Repeat ``_gain`` and ``_apply`` for one rung, whose budget, delta,
    deletion limit and best singleton value are ``rung``, over the first
    ``len(raw)`` elements of the ``window``, lists of ids, costs and
    singleton values, whose raw gains against ``state``'s working list are
    ``raw``. After the first add, ``links()`` gives the window's links (its
    state's ``links`` of the window's ids), and each add patches the later
    raw gains with them. Return the index of the first element that would
    fire the deletion test, else ``len(raw)``; the indices of the adds; the
    working value after each; and each new best singleton as ``(index, e,
    f_single)``."""
    kappa, delta, limit, f_best = rung
    taken = None  # which links an add has taken, once there is an add
    f, total = state.f_working, state.oracle_state.total
    adds, values, bests = [], [], []
    for i, (e, cost, f_single, x) in enumerate(zip(*window, raw)):
        if cost > kappa:
            continue
        if taken is not None:
            for link in held[i]:
                if taken[link]:
                    x -= amount[link]
        gain = (total + x) - f if divisor is None else (total + x) / divisor - f  # _marginals
        if f_single > f_best:
            f_best = f_single
            bests.append((i, e, f_single))
        if gain >= delta * cost * f / kappa:
            if f + gain > limit:
                return i, adds, values, bests
            if taken is None:
                held, amount = links()
                taken = [False] * len(amount)
            for link in held[i]:
                taken[link] = True
            total += x
            f += gain
            adds.append(i)
            values.append(f)
    return len(raw), adds, values, bests


def _agreed(runs) -> int:
    """The index of the first element where ``_decide`` stopped for some
    rung of a group, or where its rungs' adds differ: the group splits."""
    stop = min(run[0] for run in runs)
    if len(runs) == 1:
        return stop
    adds = [run[1] for run in runs]
    for picks in zip(*adds):
        if min(picks) != max(picks):
            return min(stop, min(picks))
    k = min(map(len, adds))  # the others add after the last add of the fewest
    return min([stop] + [a[k] for a in adds if len(a) > k])


class _Screen:
    """Decides a block's admitted elements stretch by stretch: numpy marks
    the elements that may change some rung, ``_decide`` walks only those,
    and every element is charged the queries ``_steps`` would ask for it.

    A stretch holds up to ``span`` admitted elements. ``span`` starts at
    ``_LOOK`` and doubles, up to a block, each time a stretch is walked to
    its end. Each group of rungs that ``_shares_gains`` reads the stretch's
    raw gains in one ``raw`` gather, and an element is a *candidate* when
    the group's loosest rung (largest budget, smallest delta) admits it and
    it passes that rung's add test or beats the group's smallest best
    singleton. While a group's value is not negative, an add raises it, and
    so every threshold, and links only lower later gains; so no element
    that is not a candidate at the stretch's start can enter a working set
    or beat a best singleton in it. When the value is negative, every
    admitted element is a candidate.

    The walk runs ``_decide`` for each rung over the union of the groups'
    candidates, patching gains from one ``links`` of their ids, and commits
    each group's adds in bulk (``extend``). It halts at an element decided
    before (a bool mask of those ids over-approximates the working sets),
    at a repeated id, at an element that fits the budget of a rung with an
    empty working list or a deletion test that already holds, and at a
    candidate when two groups share one working list (an add could make
    their values equal). It also stops where an add would fire a deletion
    test or rungs of a group would add differently; ``_steps`` decides the
    element where the walk stops, and the next stretch starts after it.
    Only that element becomes a tuple; the rest stay arrays or lists.
    """

    def __init__(self, per_rung, oracle, n: int, batch):
        self.per_rung = per_rung
        self.oracle = oracle
        self.n = n
        self.batch = batch
        # every id walked or fed to _steps so far, a superset of every working set
        self.stepped = np.zeros(oracle.n, dtype=bool)
        self.span = _LOOK  # admitted elements the next stretch reads
        self.rungs = [(params.kappa, params.delta, n / params.epsilon) for params, _ in per_rung]

    def feed(self, pos, ids, costs, singles) -> None:
        """Decide one block's admitted elements, given as arrays of stream
        positions, checked ids, costs and singleton values."""
        self.block = pos, ids, costs, singles
        j = 0
        while j < len(ids):
            j = self._walk(j, min(j + self.span, len(ids)))

    def _groups(self, vs):
        """The groups of rungs that ``_shares_gains``, each with the raw
        gains of the ids ``vs``, and the largest budget of a rung with an
        empty working list or a deletion test that already holds, for which
        every admitted element must be stepped (-inf when there is none)."""
        groups, blocked = [], -math.inf
        for r, (params, state) in enumerate(self.per_rung):
            if not state.working or state.f_working > self.rungs[r][2] * state.f_checkpoint:
                blocked = max(blocked, params.kappa)
                continue
            for group in groups:
                if _shares_gains(group.states[0], state):
                    group.rows.append(r)
                    group.states.append(state)
                    group.top = max(group.top, params.kappa)
                    break
            else:
                groups.append(_Group(r, state, params.kappa, state.oracle_state.raw(vs)))
        return groups, blocked

    def _candidates(self, group: _Group, costs, singles):
        """The stretch's candidates for ``group``, as a bool mask."""
        state = group.states[0]
        f, divisor = state.f_working, self.batch.divisor
        admitted = costs <= group.top
        if f < 0:
            return admitted
        gains = _marginals(state.oracle_state.total, group.raw, divisor, f)
        threshold = min(self.rungs[r][1] for r in group.rows) * costs * f / group.top
        if divisor is not None:
            # Each add leaves f within about two ulps of total / divisor, so
            # a later gain can exceed its value here by a few ulps of the
            # largest value the stretch can reach, at most f plus its
            # positive gains; lowering the threshold by 2^-40 of that keeps
            # every such element a candidate. Integer gains are exact.
            threshold -= 2.0 ** -40 * (f + gains[gains > 0].sum())
        best = min(state.f_best_single for state in group.states)
        return admitted & ((gains >= threshold) | (singles > best))

    def _walk(self, j: int, end: int) -> int:
        """Decide the block's admitted elements from ``j``, the stretch
        ``j..end-1``, by ``_decide`` over each group's candidates; return
        the index of the first element not decided."""
        ids, costs, singles = (column[j:end] for column in self.block[1:])
        groups, blocked = self._groups(ids)
        walk = np.zeros(len(ids), dtype=bool)
        for group in groups:
            walk |= self._candidates(group, costs, singles)
        halt = self.stepped[ids] | (costs <= blocked)
        if any(a.states[0].working == b.states[0].working
               for a, b in itertools.combinations(groups, 2)):
            halt |= walk
        stop = int(halt.argmax()) if halt.any() else len(ids)
        at = np.flatnonzero(walk[:stop])
        window = [column[at].tolist() for column in (ids, costs, singles)]
        k = _first_repeat(window[0])
        decided = []
        for group in groups:
            if not k:
                break
            raw = group.raw[at[:k]].tolist()
            links = functools.partial(group.states[0].oracle_state.links, ids[at[:k]])
            runs = [_decide((*self.rungs[r][:2], self.rungs[r][2] * state.f_checkpoint,
                             state.f_best_single), state, window, raw, self.batch.divisor, links)
                    for r, state in zip(group.rows, group.states)]
            k = min(k, _agreed(runs))
            decided.append((group, runs))
        if k < len(at):
            stop = int(at[k])
        for group, runs in decided:
            _, adds, values, _ = runs[0]  # the same for every rung up to k
            kept = bisect.bisect_left(adds, k)
            added = [window[0][i] for i in adds[:kept]]
            vector = np.array(added, dtype=np.intp)
            for state, (_, _, _, bests) in zip(group.states, runs):
                if added:
                    state.working += added
                    state.working_set.update(added)
                    state.f_working = values[kept - 1]
                    state.oracle_state.extend(vector)
                best = [b for b in bests if b[0] < k]
                if best:
                    _, state.best_single, state.f_best_single = best[-1]
        self.batch.count(sum(int(np.count_nonzero(costs[:stop] <= group.top)) for group in groups))
        self.stepped[ids[at[:k]]] = True
        if stop == len(ids):
            self.span = min(2 * self.span, _BLOCK)
            return end
        self.stepped[ids[stop]] = True
        _steps(self.per_rung, self.oracle, self.n,
               [tuple(column[j + stop].item() for column in self.block)])
        return j + stop + 1


def _first_repeat(ids: list) -> int:
    """The index of the first of ``ids`` equal to an earlier one, else ``len(ids)``."""
    if len(set(ids)) == len(ids):
        return len(ids)
    seen = set()
    for i, e in enumerate(ids):
        if e in seen:
            return i
        seen.add(e)


def quickprune_single(stream, oracle, cost_fn, params: PruneParams, n: int,
                      instrument: bool = False):
    """Prune the ground set for one budget in a single streaming pass.

    Returns ``(pruned_ids, report)`` where the pruned set is the retained
    working set plus the best feasible singleton. Each stream element is
    touched exactly once; a rejected element is never revisited. This is
    the one-rung case of the driver behind ``quickprune``. With
    ``instrument=True`` the report additionally carries the value of the
    surviving set and of everything ever added (two extra queries, issued
    after the pass and excluded from the reported call count).
    """
    pruned, report, (state,) = _prune(stream, oracle, cost_fn, [params], n)
    if instrument:
        # Deletions only ever drop a prefix of the add order, so the removed
        # tuples followed by the working list are every add, in order.
        ever_added = set(itertools.chain(*(ev.removed for ev in state.events),
                                         state.working))
        report.instrumentation = {
            "f_surviving": oracle.eval(state.working_set) if state.working_set else 0.0,
            "f_ever_added": oracle.eval(ever_added) if ever_added else 0.0,
            "ever_added_size": len(ever_added),
        }
    return pruned, report


def budget_ladder(kappa_min: float, kappa_max: float, eta: float) -> list:
    """Geometric budget rungs kappa_max * (1 - eta)^i down to (1 - eta) * kappa_min.

    Exactly the set {kappa_max * (1-eta)^i : i >= 0,
    (1-eta) * kappa_min <= rung <= kappa_max}, sorted descending.
    """
    _check_ladder_args(kappa_min, kappa_max, eta)
    lo = (1.0 - eta) * kappa_min
    cutoff = lo * (1.0 - _LADDER_RTOL)
    rungs = []
    tau = float(kappa_max)
    while tau >= cutoff:
        rungs.append(tau)
        tau *= 1.0 - eta
    return rungs


def ladder_size(kappa_min: float, kappa_max: float, eta: float) -> int:
    """Closed-form rung count of ``budget_ladder`` for the same arguments."""
    return _check_ladder_args(kappa_min, kappa_max, eta)


def quickprune(stream, oracle, cost_fn, params: LadderParams, n: int):
    """Prune for every budget in [kappa_min, kappa_max] in one streaming pass.

    One single-budget pruner runs per ladder rung; every stream element is
    fed to all of them; the result is the union of the per-rung outputs,
    identical to running ``quickprune_single`` once per rung. Rungs share
    their answers, so the pass costs at most one singleton query per
    element, plus one marginal per distinct rung working set, plus one
    re-evaluation per deletion.
    """
    rungs = [PruneParams(kappa=tau, delta=params.delta, epsilon=params.epsilon)
             for tau in budget_ladder(params.kappa_min, params.kappa_max, params.eta)]
    union, report, _ = _prune(stream, oracle, cost_fn, rungs, n)
    return union, report


def size_bound(n: float, kappa: float, delta: float, c_min: float, epsilon: float) -> float:
    """Worst-case pruned-set size for one budget:
    2 * (1 + kappa / (delta * c_min)) * ln(n / epsilon) + 3.

    Natural logarithm throughout. ``c_min`` is the smallest cost among
    elements that fit the budget (others never enter the working set).
    """
    require_finite(n=n, kappa=kappa, delta=delta, c_min=c_min, epsilon=epsilon)
    if min(n, kappa, delta, c_min, epsilon) <= 0:
        raise InputError("all size-bound arguments must be positive")
    if delta * c_min == 0.0:
        raise InputError("delta * c_min underflows to 0")
    if n / epsilon <= 1.0:
        raise InputError("size bound requires n / epsilon > 1")
    return 2.0 * (1.0 + kappa / (delta * c_min)) * math.log(n / epsilon) + 3.0


def _validate_alpha_args(delta: float, epsilon: float, gamma: float):
    require_finite(delta=delta, epsilon=epsilon, gamma=gamma)
    if delta <= 0:
        raise InputError("delta must be positive")
    if epsilon < 0:
        raise InputError("epsilon must be non-negative")
    if not 0 < gamma <= 1:
        raise InputError("gamma must lie in (0, 1]")
    if epsilon / gamma > 1.0:
        raise InputError("epsilon / gamma must not exceed 1")


def alpha_single(delta: float, epsilon: float, gamma: float) -> float:
    """Worst-case fraction of the single-budget optimum retained in the
    pruned set: delta * gamma^4 * (1 - epsilon / gamma)
    / (2 * (delta * gamma^2 + 1) * (1 + delta / gamma)).
    """
    _validate_alpha_args(delta, epsilon, gamma)
    numer = delta * gamma ** 4 * (1.0 - epsilon / gamma)
    denom = 2.0 * (delta * gamma ** 2 + 1.0) * (1.0 + delta / gamma)
    return numer / denom


def alpha_multi(delta: float, epsilon: float, gamma: float) -> float:
    """Worst-case retention across the whole budget range: the single-budget
    ratio with an extra gamma / 3 factor."""
    return alpha_single(delta, epsilon, gamma) * gamma / 3.0


def check_nhi(solution, cost_fn, kappa: float, eta: float) -> bool:
    """True iff no element of ``solution`` costs more than kappa * (1 - eta).

    The multi-budget retention guarantee assumes an optimal solution passes
    this check at every budget in the range. Vacuously true when empty.
    """
    limit = kappa * (1.0 - eta)
    return all(cost_fn(v) <= limit for v in solution)


def geometric_recovery_steps(beta: float, g: float) -> int:
    """Steps of growth by at least (1 + beta) needed to recover a factor 1/g.

    The smallest integer m >= ((beta + 1) / beta) * ln(1 / g); any positive
    sequence with y_i >= (1 + beta) * y_{i-1} for m such steps satisfies
    y_m >= y_0 / g. This is the counting argument behind the pruned-set size
    bound: between checkpoints the working set's value must grow
    geometrically, so only boundedly many elements fit before a deletion.
    """
    if beta <= 0:
        raise InputError("beta must be positive")
    if not 0 < g <= 1:
        raise InputError("g must lie in (0, 1]")
    return max(0, math.ceil((beta + 1.0) / beta * math.log(1.0 / g)))
