"""Requests and admission control for the online serving engine.

A :class:`Request` is one client's demand for a template access: the
template instance to fetch, who asked, when it arrived, and (optionally) a
deadline.  The engine owns the lifecycle timestamps — arrival, admission,
dispatch, completion — which :mod:`repro.serve.slo` turns into sojourn and
wait distributions.

The :class:`AdmissionQueue` bounds the work the engine will hold (capacity
is in *items*, i.e. tree nodes, since that is what loads the memory array)
and applies one of three backpressure policies when an arrival does not fit:

* ``block`` — park the arrival in an unbounded wait list; it is admitted,
  FIFO, as completions free capacity (models client-side backpressure);
* ``shed`` — reject the arrival outright (load shedding);
* ``degrade`` — repeatedly shrink the requested template
  (:func:`degrade_instance`) until it fits, shedding only if even the
  smallest degraded form does not.

:func:`request_to_json` / :func:`request_from_json` (and the instance pair
under them) are the JSON codec engine snapshots, fleet feeds and the
daemon's submit feed use for these types.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.templates.base import ELEMENTARY_KINDS, TemplateInstance
from repro.templates.composite import CompositeInstance, make_composite

__all__ = [
    "ADMISSION_POLICIES",
    "AdmissionQueue",
    "Request",
    "degrade_instance",
    "instance_from_json",
    "instance_to_json",
    "request_from_json",
    "request_to_json",
]

ADMISSION_POLICIES = ("block", "shed", "degrade")


@dataclass
class Request:
    """One in-flight template access request.

    ``deadline`` is an absolute cycle; a request that completes after it
    still completes (the engine does not abort work) but counts as a
    deadline miss in the SLO report.

    ``tenant`` names the logical owner of the request for fleet routing and
    per-tenant accounting; it defaults to the client id so single-engine
    setups (and snapshots written before the field existed) behave as
    one-tenant-per-client.
    """

    request_id: int
    client_id: int
    instance: TemplateInstance
    arrival_cycle: int
    deadline: int | None = None
    tenant: str | None = field(default=None, compare=False)
    # lifecycle timestamps, engine-owned (-1 = not reached)
    admit_cycle: int = field(default=-1, compare=False)
    dispatch_cycle: int = field(default=-1, compare=False)
    complete_cycle: int = field(default=-1, compare=False)
    #: how many times admission degraded the template to fit the queue
    degraded: int = field(default=0, compare=False)
    # retry ladder state (see ServeEngine): dispatch attempts so far, how
    # many of them timed out, and the earliest cycle a retry may dispatch
    attempts: int = field(default=0, compare=False)
    timeouts: int = field(default=0, compare=False)
    retry_at: int = field(default=-1, compare=False)

    def __post_init__(self) -> None:
        if self.tenant is None:
            self.tenant = str(self.client_id)

    @property
    def nodes(self) -> np.ndarray:
        return self.instance.nodes

    @property
    def size(self) -> int:
        return self.instance.size

    @property
    def num_components(self) -> int:
        """Elementary components this request contributes to a batch."""
        if isinstance(self.instance, CompositeInstance):
            return self.instance.num_components
        return 1

    @property
    def completed(self) -> bool:
        return self.complete_cycle >= 0

    @property
    def sojourn(self) -> int:
        """Cycles from arrival to completion (valid once completed)."""
        if not self.completed:
            raise ValueError(f"request {self.request_id} has not completed")
        return self.complete_cycle - self.arrival_cycle

    @property
    def missed_deadline(self) -> bool:
        return (
            self.deadline is not None
            and self.completed
            and self.complete_cycle > self.deadline
        )


def degrade_instance(instance: TemplateInstance) -> TemplateInstance | None:
    """Shrink a template instance to roughly half its size, staying in-family.

    Degradation keeps the result a *valid* instance of the same kind so the
    batching invariants (disjoint elementary components) still hold:

    * ``path`` — keep the bottom half (nodes are stored bottom-up);
    * ``level`` — keep the left half of the run;
    * ``subtree`` — drop the last level (BFS prefix of ``2**(x-1) - 1``);
    * ``composite`` — keep the first half of the components (degrading the
      single component when only one is left).

    Returns ``None`` when the instance cannot shrink further (single node,
    or an unknown kind that has no safe truncation).
    """
    if isinstance(instance, CompositeInstance):
        comps = instance.components
        if len(comps) > 1:
            return make_composite(list(comps[: (len(comps) + 1) // 2]))
        smaller = degrade_instance(comps[0])
        return None if smaller is None else make_composite([smaller])
    if instance.size <= 1 or instance.kind not in ELEMENTARY_KINDS:
        return None
    if instance.kind == "subtree":
        keep = (instance.size + 1) // 2 - 1  # 2**x - 1  ->  2**(x-1) - 1
    else:
        keep = (instance.size + 1) // 2
    return TemplateInstance(
        kind=instance.kind, nodes=instance.nodes[:keep], anchor=instance.anchor
    )


# -- JSON codec ----------------------------------------------------------------


def instance_to_json(instance: TemplateInstance) -> dict:
    if isinstance(instance, CompositeInstance):
        return {
            "kind": "composite",
            "components": [instance_to_json(c) for c in instance.components],
        }
    return {
        "kind": instance.kind,
        "nodes": [int(n) for n in instance.nodes],
        "anchor": int(instance.anchor),
    }


def instance_from_json(payload: dict) -> TemplateInstance:
    if payload["kind"] == "composite":
        return make_composite(
            [instance_from_json(c) for c in payload["components"]]
        )
    return TemplateInstance(
        kind=payload["kind"],
        nodes=np.array(payload["nodes"], dtype=np.int64),
        anchor=int(payload["anchor"]),
    )


def request_to_json(request: Request) -> dict:
    return {
        "id": request.request_id,
        "client": request.client_id,
        "tenant": request.tenant,
        "instance": instance_to_json(request.instance),
        "arrival": request.arrival_cycle,
        "deadline": request.deadline,
        "admit": request.admit_cycle,
        "dispatch": request.dispatch_cycle,
        "complete": request.complete_cycle,
        "degraded": request.degraded,
        "attempts": request.attempts,
        "timeouts": request.timeouts,
        "retry_at": request.retry_at,
    }


def request_from_json(payload: dict) -> Request:
    return Request(
        request_id=int(payload["id"]),
        client_id=int(payload["client"]),
        # snapshots from before multi-tenancy have no tenant: None makes the
        # rebuilt request default it from the client id, as the engine would
        tenant=payload.get("tenant"),
        instance=instance_from_json(payload["instance"]),
        arrival_cycle=int(payload["arrival"]),
        deadline=None if payload["deadline"] is None else int(payload["deadline"]),
        admit_cycle=int(payload["admit"]),
        dispatch_cycle=int(payload["dispatch"]),
        complete_cycle=int(payload["complete"]),
        degraded=int(payload["degraded"]),
        attempts=int(payload["attempts"]),
        timeouts=int(payload["timeouts"]),
        retry_at=int(payload["retry_at"]),
    )


class AdmissionQueue:
    """Bounded FIFO of admitted requests awaiting dispatch.

    ``capacity`` counts *items* (tree nodes) across all pending requests,
    so a degraded template genuinely takes less room.  The queue never
    reorders admitted requests; batch policies pick from it.
    """

    def __init__(self, capacity: int, policy: str = "block"):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if policy not in ADMISSION_POLICIES:
            raise ValueError(
                f"unknown admission policy {policy!r}; pick from {ADMISSION_POLICIES}"
            )
        self.capacity = capacity
        self.policy = policy
        self.pending: list[Request] = []
        self.waiting: deque[Request] = deque()  # block policy overflow
        #: items across ``pending`` / ``waiting``, updated wherever a list
        #: changes so admission and fleet routing never re-sum them.  A
        #: request's size changes only on degrade, while it is in neither
        #: list, so the size it leaves with is the size it entered with.
        self.pending_items = 0
        self.waiting_items = 0

    def __len__(self) -> int:
        return len(self.pending)

    def _fits(self, size: int) -> bool:
        return self.pending_items + size <= self.capacity

    def _admit(self, request: Request, cycle: int) -> None:
        request.admit_cycle = cycle
        self.pending.append(request)
        self.pending_items += request.size

    def offer(self, request: Request, cycle: int) -> str:
        """Try to admit an arrival; returns ``"admitted"``, ``"blocked"``
        or ``"shed"`` (a degraded admit reports ``"admitted"`` and bumps
        ``request.degraded``)."""
        if request.size > self.capacity and self.policy != "degrade":
            return "shed"  # can never fit, blocking would deadlock
        if self._fits(request.size):
            self._admit(request, cycle)
            return "admitted"
        if self.policy == "block":
            self.waiting.append(request)
            self.waiting_items += request.size
            return "blocked"
        if self.policy == "shed":
            return "shed"
        # degrade: shrink until it fits (or give up)
        instance = request.instance
        while instance is not None and not self._fits(instance.size):
            instance = degrade_instance(instance)
            request.degraded += 1
        if instance is None:
            return "shed"
        request.instance = instance
        self._admit(request, cycle)
        return "admitted"

    def requeue(self, request: Request) -> None:
        """Put a timed-out request back at the head of the queue.

        Retried requests are the oldest work the engine holds, so they keep
        head-of-line priority (their backoff window, not queue position,
        delays the redispatch).  The request was admitted once already:
        requeueing deliberately bypasses the capacity check so a retry can
        never be shed by arrival pressure.
        """
        self.pending.insert(0, request)
        self.pending_items += request.size

    def admit_waiting(self, cycle: int) -> list[Request]:
        """Move blocked arrivals into the queue as capacity frees (FIFO)."""
        admitted: list[Request] = []
        while self.waiting and self._fits(self.waiting[0].size):
            request = self.waiting.popleft()
            self.waiting_items -= request.size
            self._admit(request, cycle)
            admitted.append(request)
        return admitted

    def remove(self, requests) -> None:
        """Drop dispatched requests from the pending list."""
        chosen = {id(req) for req in requests}
        kept = []
        for req in self.pending:
            if id(req) in chosen:
                self.pending_items -= req.size
            else:
                kept.append(req)
        self.pending = kept

    def reset(self, pending=(), waiting=()) -> None:
        """Replace both lists and recount their items (a purge empties the
        queue; a restore refills it from a snapshot)."""
        self.pending = list(pending)
        self.waiting = deque(waiting)
        self.pending_items = sum(req.size for req in self.pending)
        self.waiting_items = sum(req.size for req in self.waiting)

    @property
    def drained(self) -> bool:
        return not self.pending and not self.waiting

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AdmissionQueue(policy={self.policy!r}, "
            f"pending={len(self.pending)}/{self.pending_items} items, "
            f"waiting={len(self.waiting)}, capacity={self.capacity})"
        )
