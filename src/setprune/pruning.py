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
(cut, undirected influence), a screen skips in numpy the elements that can
change no rung, and walks the stretches where the others are dense: one
scalar loop repeats the element-by-element float operations on the
stretch's gathered integer gains, patches the gains that each add lowers
from the states' ``links``, and commits the adds in bulk. Only single
elements, where a walk must stop, become Python tuples. Skipped and walked
elements are charged exactly the queries the element-by-element pass asks,
so outputs, events, every float and query counts are unchanged.

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
# values in one batch; screened windows double up to a block. On the bench's
# cut workload 1,024 ran slower, 4,096 no faster.
_BLOCK = 2048

# Admitted elements in the screen's first window, and in the first stretch it
# sets aside; a window that finds no event doubles the next one.
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
    """Rungs that ``_shares_gains`` in one window: their rows in the ladder,
    their states, and the window's raw gains against their common set."""

    __slots__ = ("rows", "states", "raw")

    def __init__(self, row: int, state: SinglePrunerState, raw):
        self.rows, self.states, self.raw = [row], [state], raw


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
    """Finds, block by block, the elements that can change some rung and
    skips the others in numpy; walks the stretches where they are dense.

    An admitted element is an *event* for a rung when it passes the rung's
    add test, beats its best singleton, is already in a working set, meets
    an empty working list, or meets a rung whose deletion test already holds
    (possible with negative values). Membership is over-approximated, which
    is safe, by a bool mask of every id decided so far, read in one gather
    per window. Each window reads the raw gains of its admitted elements,
    one ``raw`` gather per group of rungs that ``_shares_gains``. Between
    two events no rung changes, so one numpy pass compares each rung's gains
    (``_marginals`` of the raw ones), add thresholds (the scalar test's
    operations, in its order) and best singleton, and finds the first event.
    The elements before it are charged in one step the queries ``_steps``
    asks for them: one marginal per group of rungs that ``_shares_gains``,
    when some rung of the group admits the element. A window that finds no
    event doubles the next one, up to a block. A window that skips at least
    ``_LOOK // 2`` elements before its event paid for itself, and ``_steps``
    decides the event. One that skips fewer did not: the screen sets aside
    a stretch from the event, twice as long each time this happens before a
    window pays again, and ``_walk`` decides it.

    A walk repeats the float operations of ``_gain`` and ``_apply`` on the
    stretch's raw gains, one group at a time, patching them after each add
    with the group's ``links``, and commits each group's adds in bulk
    (``extend``). It runs to the end of the stretch unless it must stop, and
    ``_steps`` decides the element where it stops. Only the elements
    stepped become tuples; the rest stay arrays or lists.
    """

    def __init__(self, per_rung, oracle, n: int, batch):
        self.per_rung = per_rung
        self.oracle = oracle
        self.n = n
        self.batch = batch
        self.kappa = np.array([[params.kappa] for params, _ in per_rung])
        self.delta = np.array([[params.delta] for params, _ in per_rung])
        # every id walked or fed to _steps so far, a superset of every working set
        self.stepped = np.zeros(oracle.n, dtype=bool)
        self.look = _LOOK   # admitted elements the next window reads
        self.aside = 0      # admitted elements left to walk unscreened
        self.backoff = _LOOK  # the stretch the next window that does not pay sets aside
        self.rungs = [(params.kappa, params.delta, n / params.epsilon) for params, _ in per_rung]

    def feed(self, pos, ids, costs, singles) -> None:
        """Run one block's admitted elements, given as arrays of stream
        positions, checked ids, costs and singleton values, past ``_steps``
        or through the walk."""
        self.block = pos, ids, costs, singles
        j = 0
        while j < len(ids):
            if self.aside:
                stop = min(j + self.aside, len(ids))
                end = self._walk(*self._groups(ids[j:stop]), j, stop)
                self.aside -= end - j
                j = end
                continue
            end = min(j + self.look, len(ids))
            groups, blocked = self._groups(ids[j:end])
            k = j + self._first_event(groups, blocked, ids[j:end], costs[j:end], singles[j:end])
            if k == end:
                self.look = min(2 * self.look, _BLOCK)
                j = end
                continue
            self.look = _LOOK
            if k - j < _LOOK // 2:  # dense events: walk a stretch from this one
                self.aside, self.backoff = self.backoff, 2 * self.backoff
                j = k
            else:
                self.backoff = _LOOK
                j = self._step(k, k + 1)

    def _elements(self, a: int, b: int) -> list:
        """The block's admitted elements ``a..b-1`` as ``(pos, e, cost, f_single)``."""
        return list(zip(*(column[a:b].tolist() for column in self.block)))

    def _step(self, a: int, b: int) -> int:
        """Hand the block's admitted elements ``a..b-1`` to ``_steps``; return ``b``."""
        self.stepped[self.block[1][a:b]] = True
        _steps(self.per_rung, self.oracle, self.n, self._elements(a, b))
        return b

    def _groups(self, vs):
        """The groups of rungs that ``_shares_gains``, each with the raw
        gains of the ids ``vs``, and the largest budget of a rung for which
        every admitted element is an event (-inf when there is none)."""
        groups, blocked = [], -math.inf
        for r, (params, state) in enumerate(self.per_rung):
            if not state.working or state.f_working > self.rungs[r][2] * state.f_checkpoint:
                blocked = max(blocked, params.kappa)
                continue
            for group in groups:
                if _shares_gains(group.states[0], state):
                    group.rows.append(r)
                    group.states.append(state)
                    break
            else:
                groups.append(_Group(r, state, state.oracle_state.raw(vs)))
        return groups, blocked

    def _first_event(self, groups, blocked, ids, costs, singles) -> int:
        """The index of the first event in a window of admitted elements,
        or its length; counts the queries of the elements before it."""
        admitted = costs <= self.kappa
        gain = np.zeros(admitted.shape)
        f_working = np.array([[state.f_working] for _, state in self.per_rung], dtype=float)
        f_best = np.array([[state.f_best_single] for _, state in self.per_rung])
        divisor = self.batch.divisor
        for group in groups:
            state = group.states[0]
            gains = _marginals(state.oracle_state.total, group.raw, divisor, state.f_working)
            for r in group.rows:
                gain[r] = gains
        threshold = self.delta * costs * f_working / self.kappa
        hit = (admitted & ((singles > f_best) | (gain >= threshold))).any(axis=0)
        hit |= (costs <= blocked) | self.stepped[ids]
        k = int(hit.argmax()) if hit.any() else len(ids)
        if k:
            self.batch.count(sum(int(np.count_nonzero(admitted[group.rows, :k].any(axis=0)))
                                 for group in groups))
        return k

    def _walk(self, groups, blocked, j: int, end: int) -> int:
        """Decide the block's admitted elements ``j..end-1``, in order, by
        ``_decide`` over each group's raw gains and links; return the index
        of the first element not decided.

        The walk stops at the first element that was decided before, repeats
        an id of ``j..end-1``, fits the ``blocked`` budget, or would split a
        group or fire a deletion test, and ``_steps`` decides that one, after
        each group's adds are committed in one step. Each decided element is
        charged one query per group with an admitting rung. With two groups
        over one working list (values that differ in type or in their last
        bits, which adds could make equal), nothing is walked."""
        vs = self.block[1][j:end]
        halt = self.stepped[vs]
        if blocked > -math.inf:
            halt |= self.block[2][j:end] <= blocked
        stop = int(halt.argmax()) if halt.any() else len(vs)
        if any(a.states[0].working == b.states[0].working
               for a, b in itertools.combinations(groups, 2)):
            stop = 0
        window = [column[j:j + stop].tolist() for column in self.block[1:]]  # ids, costs, singles
        stop = _first_repeat(window[0])
        decided = []
        for group in groups:
            if not stop:
                break
            raw = group.raw[:stop].tolist()
            links = functools.partial(group.states[0].oracle_state.links, vs[:stop])
            runs = [_decide((*self.rungs[r][:2], self.rungs[r][2] * state.f_checkpoint,
                             state.f_best_single), state, window, raw, self.batch.divisor, links)
                    for r, state in zip(group.rows, group.states)]
            stop = min(stop, _agreed(runs))
            decided.append((group, runs))
        tops = [[max(self.rungs[r][0] for r in group.rows)] for group, _ in decided]
        charged = int(np.count_nonzero(self.block[2][j:j + stop] <= np.array(tops)))
        for group, runs in decided:
            _, adds, values, _ = runs[0]  # the same for every rung up to the stop
            kept = bisect.bisect_left(adds, stop)
            added = [window[0][i] for i in adds[:kept]]
            vector = np.array(added, dtype=np.intp)
            for state, (_, _, _, bests) in zip(group.states, runs):
                if added:
                    state.working += added
                    state.working_set.update(added)
                    state.f_working = values[kept - 1]
                    state.oracle_state.extend(vector)
                best = [b for b in bests if b[0] < stop]
                if best:
                    _, state.best_single, state.f_best_single = best[-1]
        self.batch.count(charged)
        self.stepped[vs[:stop]] = True
        return end if j + stop == end else self._step(j + stop, j + stop + 1)


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
