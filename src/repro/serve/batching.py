"""Batch formation: packing pending requests into composite rounds.

The paper's composite-template result is, read operationally, a batching
theorem: ``c`` pairwise-disjoint elementary instances can be accessed
together as one ``C(D, c)`` instance, and under COLOR the whole batch costs
at most ``c - 1 + k`` conflicts — far less than serving the components one
round-group at a time.  The policies here realize that bound *online*:

* :class:`FifoPolicy` — one request per batch, strict arrival order.  The
  baseline every serving comparison is anchored on.
* :class:`GreedyPackPolicy` — take the queue head, then sweep the queue in
  FIFO order packing every request whose node set is disjoint from the
  batch so far, up to ``max_components`` elementary components, refusing
  any addition whose *predicted* conflicts (via ``mapping.colors_of``)
  would break the ``c - 1 + k`` budget.  Packed elementary components are
  assembled into a real :class:`~repro.templates.composite.CompositeInstance`
  via :func:`~repro.templates.composite.make_composite`, so the batch is a
  certified member of ``C(D, c)``.
* :class:`LoadAwarePolicy` — same packing constraints, but each slot is
  filled by the *candidate that minimizes the predicted per-module peak
  load*, not the first that fits; ties break toward arrival order so the
  policy stays starvation-free.

All policies keep the queue head in the batch, so every request is served
eventually regardless of how badly it packs.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.core.mapping import TreeMapping
from repro.serve.request import Request
from repro.templates.base import ELEMENTARY_KINDS
from repro.templates.composite import CompositeInstance, make_composite

__all__ = [
    "POLICIES",
    "Batch",
    "BatchPolicy",
    "FifoPolicy",
    "GreedyPackPolicy",
    "LoadAwarePolicy",
    "batch_conflict_bound",
    "make_policy",
]


def batch_conflict_bound(c: int, k: int) -> int:
    """The paper's online packing budget: ``c - 1 + k`` conflicts.

    ``c`` disjoint conflict-free components can collide at most ``c - 1``
    times on any one module, plus the ``k`` slack COLOR needs for
    components (level runs, off-size subtrees) that are not individually
    conflict-free.  The conflict-aware policies keep every batch within
    this budget by construction; ``bench_e18_serving`` asserts the measured
    maxima against it.
    """
    return c - 1 + k


@dataclass(frozen=True)
class Batch:
    """One dispatch unit: requests served together in a single round group."""

    requests: tuple[Request, ...]
    nodes: np.ndarray
    module_counts: np.ndarray
    conflicts: int
    num_components: int
    #: the certified ``C(D, c)`` instance, when every member is elementary
    composite: CompositeInstance | None
    #: each node's module under the mapping the batch was costed with, in
    #: ``nodes`` order (dispatch enqueues by these); ``None`` on a batch
    #: rebuilt from a snapshot, which is dispatched already
    colors: np.ndarray | None = None

    @property
    def size(self) -> int:
        return int(self.nodes.size)

    def __len__(self) -> int:
        return len(self.requests)


def _elementary_components(requests) -> list | None:
    """Flatten requests into elementary components, or ``None`` if any
    request carries a kind that cannot join a ``C(D, c)`` instance."""
    parts = []
    for req in requests:
        if isinstance(req.instance, CompositeInstance):
            parts.extend(req.instance.components)
        elif req.instance.kind in ELEMENTARY_KINDS:
            parts.append(req.instance)
        else:
            return None
    return parts


def build_batch(requests, mapping: TreeMapping) -> Batch:
    """Assemble and cost a batch from already-selected requests."""
    if not requests:
        raise ValueError("a batch needs at least one request")
    nodes = np.concatenate([req.nodes for req in requests])
    colors = mapping.colors_of(nodes)
    counts = np.bincount(colors, minlength=mapping.num_modules)
    parts = _elementary_components(requests)
    composite = None
    if parts is not None and len(parts) > 1:
        composite = make_composite(parts)
    return Batch(
        requests=tuple(requests),
        nodes=nodes,
        module_counts=counts,
        conflicts=int(counts.max() - 1),
        num_components=sum(req.num_components for req in requests),
        composite=composite,
        colors=colors,
    )


class BatchPolicy(abc.ABC):
    """Selects which pending requests ride in the next batch.

    ``max_components`` caps the paper's ``c``; ``bound_k`` enables the
    conflict-aware budget (pass the mapping's COLOR parameter ``k``, or
    ``None`` to pack on disjointness alone).
    """

    name: str = "?"

    def __init__(self, max_components: int = 4, bound_k: int | None = None):
        if max_components < 1:
            raise ValueError(f"max_components must be >= 1, got {max_components}")
        self.max_components = max_components
        self.bound_k = bound_k

    @abc.abstractmethod
    def select(
        self, pending, mapping: TreeMapping, avoid: frozenset = frozenset()
    ) -> list[Request]:
        """Pick a non-empty subset of ``pending`` (which is non-empty).

        ``avoid`` lists currently-failed modules: requests whose nodes map
        onto them are deferred when any alternative exists (packing onto a
        dead bank just buys a timeout), but when *every* pending request
        touches a failed module the head dispatches anyway so the retry
        ladder — not the policy — decides its fate.
        """

    def form(
        self, pending, mapping: TreeMapping, avoid: frozenset = frozenset()
    ) -> Batch:
        # a lone pending request is the only non-empty subset there is
        chosen = [pending[0]] if len(pending) == 1 else self.select(
            pending, mapping, avoid=avoid
        )
        if not chosen:
            raise AssertionError(f"{self.name} selected an empty batch")
        return build_batch(chosen, mapping)

    # -- shared packing machinery ---------------------------------------------

    def _budget_ok(self, counts: np.ndarray, components: int) -> bool:
        if self.bound_k is None:
            return True
        return int(counts.max() - 1) <= batch_conflict_bound(
            components, self.bound_k
        )

    def _counts_of(self, request: Request, mapping: TreeMapping) -> np.ndarray:
        return np.bincount(
            mapping.colors_of(request.nodes), minlength=mapping.num_modules
        )

    def _fault_order(self, pending, mapping: TreeMapping, avoid: frozenset):
        """Restrict ``pending`` to fault-clean requests when any exist.

        With an empty ``avoid`` this is the identity.  Otherwise requests
        that touch a failed module are dropped from the candidate list —
        one dead-bank item stalls the whole round-group until it times out,
        so packing it alongside clean work only spreads the damage.  When
        *nothing* is clean the original order stands (the head dispatches
        and the retry ladder decides its fate).
        """
        if not avoid:
            return list(pending)
        avoid_list = list(avoid)
        clean = [
            req
            for req in pending
            if not np.isin(mapping.colors_of(req.nodes), avoid_list).any()
        ]
        return clean if clean else list(pending)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(max_components={self.max_components}, "
            f"bound_k={self.bound_k})"
        )


class FifoPolicy(BatchPolicy):
    """One request per batch, strict arrival order — the unbatched baseline."""

    name = "fifo"

    def select(
        self, pending, mapping: TreeMapping, avoid: frozenset = frozenset()
    ) -> list[Request]:
        return [self._fault_order(pending, mapping, avoid)[0]]


class GreedyPackPolicy(BatchPolicy):
    """First-fit packing of disjoint requests, up to ``c`` components."""

    name = "greedy-pack"

    def select(
        self, pending, mapping: TreeMapping, avoid: frozenset = frozenset()
    ) -> list[Request]:
        pending = self._fault_order(pending, mapping, avoid)
        head = pending[0]
        chosen = [head]
        used = set(head.instance.node_set())
        counts = self._counts_of(head, mapping)
        components = head.num_components
        for req in pending[1:]:
            if components >= self.max_components:
                break
            if components + req.num_components > self.max_components:
                continue
            node_set = req.instance.node_set()
            if not used.isdisjoint(node_set):
                continue
            trial = counts + self._counts_of(req, mapping)
            if not self._budget_ok(trial, components + req.num_components):
                continue
            chosen.append(req)
            used |= node_set
            counts = trial
            components += req.num_components
        return chosen


class LoadAwarePolicy(BatchPolicy):
    """Greedy packing that fills each slot with the min-peak-load candidate.

    ``window`` bounds how deep into the queue each slot search looks, which
    keeps formation cost linear in practice and bounds how far a request
    can be overtaken.
    """

    name = "load-aware"

    def __init__(
        self,
        max_components: int = 4,
        bound_k: int | None = None,
        window: int = 32,
    ):
        super().__init__(max_components=max_components, bound_k=bound_k)
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = window

    def select(
        self, pending, mapping: TreeMapping, avoid: frozenset = frozenset()
    ) -> list[Request]:
        pending = self._fault_order(pending, mapping, avoid)
        head = pending[0]
        chosen = [head]
        used = set(head.instance.node_set())
        counts = self._counts_of(head, mapping)
        components = head.num_components
        candidates = list(pending[1 : self.window + 1])
        while components < self.max_components and candidates:
            best = None
            best_key = None
            for req in candidates:
                if components + req.num_components > self.max_components:
                    continue
                if not used.isdisjoint(req.instance.node_set()):
                    continue
                trial = counts + self._counts_of(req, mapping)
                if not self._budget_ok(trial, components + req.num_components):
                    continue
                # minimize the predicted peak; earlier arrival wins ties
                key = int(trial.max())
                if best_key is None or key < best_key:
                    best, best_key, best_trial = req, key, trial
            if best is None:
                break
            chosen.append(best)
            candidates.remove(best)
            used |= best.instance.node_set()
            counts = best_trial
            components += best.num_components
        return chosen


POLICIES = {
    "fifo": FifoPolicy,
    "greedy-pack": GreedyPackPolicy,
    "load-aware": LoadAwarePolicy,
}


def make_policy(name: str, **kwargs) -> BatchPolicy:
    """Instantiate a policy by registry name (``fifo`` takes no packing
    parameters, so they are dropped for it)."""
    try:
        cls = POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown batch policy {name!r}; pick from {sorted(POLICIES)}"
        ) from None
    if cls is FifoPolicy:
        kwargs.pop("window", None)
    if cls is GreedyPackPolicy:
        kwargs.pop("window", None)
    return cls(**kwargs)
