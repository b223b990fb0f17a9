"""Single-pass ground-set pruning for one budget or a geometric budget ladder.

The single-budget pruner streams the ground set once, keeping an element
when its marginal gain is at least ``delta * c(e) * f(A) / kappa``, tracking
the best feasible singleton on the side, and discarding the previous
checkpoint's elements whenever the running value has grown by more than a
factor ``n / epsilon`` since that checkpoint. The multi-budget variant runs
one such pruner per rung of a geometric budget ladder and returns the union
of their outputs. Both go through one streaming driver: ``quickprune_single``
is the one-rung case of the driver that ``quickprune`` runs over the ladder.
The ladder pass asks each distinct oracle question once per element.

Closed-form companions to the pruners live here as well: the pruned-set
size bound, the worst-case retention ratios, the ladder-size formula, the
big-item cost check, and the geometric-growth step count they rest on.
"""

from __future__ import annotations

import itertools
import math
import sys
import time
from dataclasses import dataclass, field

from .errors import InputError, checked_costs, require_finite
from .objectives import oracle_singletons, oracle_state

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

# Stream elements `_prune` reads at a time: their costs are taken and
# their singleton values asked in one batch before the block is fed through
# the rungs element by element.
_BLOCK = 256


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

    Runs the query step (``_gain``), then the apply step (``_apply``);
    ``_prune`` runs the same two steps, querying every rung before any
    applies. Costs at most two fresh oracle queries (one when the
    working set is empty, where the singleton value doubles as the
    marginal), plus one evaluation of the survivors when a deletion
    removes elements and rebuilds the oracle state from them. Raises
    InputError when ``cost_fn(e)`` is not positive (NaN included).
    """
    if n < 1:
        raise InputError("ground-set size n must be >= 1")
    state.processed += 1
    (cost,) = checked_costs(cost_fn, (e,))
    if cost <= params.kappa:
        f_single = oracle.eval({e})
        gain = _gain(state, oracle, e, f_single, {})
        _apply(state, oracle, params, n, e, cost, gain, f_single)
    return state


def _gain(state: SinglePrunerState, oracle, e, f_single, answers: dict):
    """Query step: the gain of ``e`` for the state's working set.

    ``answers`` maps a cached working-set value to the ``(working, value,
    gain)`` triples already asked for ``e`` with an equal value. A state
    holding the same list under an equal value of the same type reuses the
    gain instead of asking again: the oracle's answer depends only on the
    set and the cached value. Mutates nothing but ``answers`` (and makes the
    oracle state on first use).
    """
    if state.oracle_state is None:
        state.oracle_state = oracle_state(oracle)
    if e in state.working_set:
        # Duplicate of a retained element: marginal is zero by idempotence,
        # which can never satisfy a positive threshold.
        return 0.0
    if not state.working:
        return f_single - state.f_working
    f_working = state.f_working
    asked = answers.setdefault(f_working, [])
    for working, value, gain in asked:
        # An int and a float value compare equal but give gains of
        # different types (a cut re-evaluated after a deletion is an int).
        if type(value) is type(f_working) and working == state.working:
            return gain
    gain = state.oracle_state.marginal(e, f_working)
    asked.append((state.working, f_working, gain))
    return gain


def _apply(state: SinglePrunerState, oracle, params: PruneParams, n: int, e, cost,
           gain, f_single) -> None:
    """Apply step: add rule, best-singleton update, checkpoint deletion; a
    deletion gives the rung a fresh oracle state holding the survivors."""
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
            stream_pos=state.processed - 1,
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
    rung's budget admits ``e``, and one marginal per distinct (working list,
    cached value) among the admitting rungs. The stream is read in blocks of
    ``_BLOCK`` elements; each block's costs are checked, and the singleton
    values of the elements that fit the largest budget are asked in one
    ``singletons`` batch, before its elements go through the rungs one at a
    time. Every admitting rung runs the query step before any applies the
    element, so the comparisons see unmutated states.
    """
    if n < 1:
        raise InputError("ground-set size n must be >= 1")
    if rungs[0].epsilon >= n:
        raise InputError("epsilon must be smaller than the ground-set size")
    start = time.monotonic()
    calls_before = oracle.query_count
    per_rung = [(params, SinglePrunerState()) for params in rungs]
    top = max(params.kappa for params in rungs)
    stream = iter(stream)
    while block := list(itertools.islice(stream, _BLOCK)):
        costs = checked_costs(cost_fn, block)
        singles = iter(oracle_singletons(
            oracle, [e for e, cost in zip(block, costs) if cost <= top]))
        for e, cost in zip(block, costs):
            f_single = next(singles) if cost <= top else None
            answers = {}
            admitted = []
            for params, state in per_rung:
                state.processed += 1
                if cost <= params.kappa:
                    admitted.append((params, state, _gain(state, oracle, e, f_single, answers)))
            for params, state, gain in admitted:
                _apply(state, oracle, params, n, e, cost, gain, f_single)
    union = set()
    sizes = {}
    events = []
    deletions = 0
    for params, state in per_rung:
        out = state.pruned_set()
        sizes[params.kappa] = len(out)
        union |= out
        deletions += state.deletions
        events.extend(state.events)
    report = PruneReport(
        pruned=frozenset(union),
        oracle_calls=oracle.query_count - calls_before,
        deletions=deletions,
        per_budget_sizes=sizes,
        elapsed=time.monotonic() - start,
        n=n,
        events=events,
    )
    return union, report, [state for _, state in per_rung]


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
