"""Runtime shared-state race detector for the simulated concurrency model.

The simulator runs every process in one OS thread, so nothing in Python
stops process *A*'s handler from writing process *B*'s attributes or
mutating a payload object that is still sitting in the event queue — bugs
that would be genuine data races on a real network and that silently break
the determinism contract here (the receiver observes state that depends on
event interleaving, not on the protocol).

``Network(race_detect=True)`` arms this detector.  Two checks:

**Ownership tagging.**  Every registered process instance is re-classed to
a generated subclass whose ``__setattr__`` consults the detector: while
the network executes a handler on behalf of node *A* (``on_start``,
``on_message``, a timer callback, ``on_recover``), attribute writes to a
process owned by node *B* raise :class:`SharedStateViolation`.  Classes
with ``__slots__`` (no instance ``__dict__``) cannot be re-classed and are
skipped — the payload check below still covers them.

**Sent-payload immutability.**  Every scheduled delivery fingerprints its
payload (``repr`` — faithful for the tuples/dicts/lists/dataclasses every
protocol here sends).  If the payload's fingerprint changed between send
and delivery — the sender kept a reference and mutated it, or an earlier
receiver of the *same object* mutated it while copies were still in
flight — the delivery raises.  Re-sending a mutated object is caught at
the second send.

Disabled (the default), the detector costs one ``is None`` check per
*send* (the same normalization pattern as the ``repro.obs`` recorder) and
nothing at all per *delivery* or timer: the network swaps in wrapped
delivery methods only when armed.

``race_detect="record"`` collects violations on
``Network.race_detector.violations`` (and emits a ``violation`` trace
event when a recorder is attached) instead of raising — useful for
sweeping an existing suite for hazards without aborting runs.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from typing import Any

__all__ = ["SharedStateViolation", "RaceDetector", "violation_signature",
           "violation_signatures"]

#: Sentinel owner for framework phases (construction, scheduling) during
#: which writes are unrestricted.
_FRAMEWORK = object()


class SharedStateViolation(RuntimeError):
    """A process touched state it does not own.

    ``kind`` is ``"cross-write"`` (attribute write across the process
    boundary) or ``"payload-mutation"`` (a message object changed between
    send and delivery).
    """

    def __init__(self, kind: str, message: str, *, node: Any = None,
                 owner: Any = None, t: float = 0.0) -> None:
        super().__init__(message)
        self.kind = kind
        self.node = node
        self.owner = owner
        self.t = t


def violation_signature(violation: SharedStateViolation) -> tuple[str, str, str]:
    """Canonical hashable identity of one violation: who raced with whom.

    Deliberately excludes the message text and timestamp: two runs that
    trip the *same* hazard (same kind, same actor, same victim) at
    different times or with different payload reprs should coalesce —
    this is the key the chaos fuzzer's coverage map dedupes on.
    """
    return (violation.kind, repr(violation.node), repr(violation.owner))


def violation_signatures(
    violations: Iterable[SharedStateViolation],
) -> tuple[tuple[str, str, str], ...]:
    """Sorted, deduplicated signature tuple for a run's violation list.

    Plain nested tuples of strings: hashable (novelty keys), picklable
    (crosses sweep-pool boundaries), and byte-stable under ``repr`` /
    ``json.dumps`` (fuzz-corpus determinism).
    """
    return tuple(sorted({violation_signature(v) for v in violations}))


# Generated guard subclass per original process class (shared across
# detectors: the guard reads the detector off the instance).
_guarded_classes: dict[type, type | None] = {}


def _guard_class(cls: type) -> type | None:
    """A subclass of ``cls`` whose ``__setattr__`` consults the detector.

    Returns None when ``cls`` cannot be re-classed (``__slots__`` layouts
    differ, so instances without a ``__dict__`` are left unguarded).
    """
    if cls in _guarded_classes:
        return _guarded_classes[cls]

    def __setattr__(self: Any, name: str, value: Any,
                    _base: type = cls) -> None:
        detector = self.__dict__.get("_race_detector")
        if detector is not None:
            detector.on_attr_write(self, name)
        _base.__setattr__(self, name, value)

    def __delattr__(self: Any, name: str, _base: type = cls) -> None:
        detector = self.__dict__.get("_race_detector")
        if detector is not None:
            detector.on_attr_write(self, name)
        _base.__delattr__(self, name)

    guarded: type | None
    try:
        guarded = type(
            f"_RaceGuarded{cls.__name__}", (cls,),
            {"__setattr__": __setattr__, "__delattr__": __delattr__},
        )
    except TypeError:
        guarded = None
    _guarded_classes[cls] = guarded
    return guarded


class RaceDetector:
    """One network's shared-state monitor (see the module docstring).

    Parameters
    ----------
    mode:
        ``"raise"`` aborts the run at the first violation;
        ``"record"`` collects them on :attr:`violations` (and emits
        ``violation`` trace events when the network has a recorder).
    """

    def __init__(self, mode: str = "raise") -> None:
        if mode not in ("raise", "record"):
            raise ValueError(f"race_detect mode must be 'raise' or 'record', "
                             f"got {mode!r}")
        self.mode = mode
        self.violations: list[SharedStateViolation] = []
        self.active_owner: Any = _FRAMEWORK
        self._network: Any = None
        # id(payload) -> [fingerprint, pending_delivery_count, payload].
        # The strong payload reference pins the id for the entry's lifetime.
        self._in_flight: dict[int, list[Any]] = {}

    # ------------------------------------------------------------------ #
    # Arming (called by Network.__init__)
    # ------------------------------------------------------------------ #

    def attach(self, network: Any) -> None:
        """Tag every registered process and wrap the delivery hot paths."""
        self._network = network
        for node, proc in network.processes.items():
            guarded = _guard_class(type(proc))
            if guarded is None:
                continue  # class could not grow a guard subclass
            try:
                proc.__class__ = guarded
            except TypeError:
                # __slots__ layout without __dict__: cannot re-class.
                _guarded_classes[type(proc)] = None
                continue
            # object.__setattr__ so the installs themselves aren't checked.
            object.__setattr__(proc, "_race_owner", node)
            object.__setattr__(proc, "_race_detector", self)
        network._deliver = self._wrap_deliver(network._deliver)
        network._deliver_traced = self._wrap_deliver_traced(
            network._deliver_traced)
        network._timer_fire = self._wrap_timer_fire(network._timer_fire)

    # ------------------------------------------------------------------ #
    # Violation plumbing
    # ------------------------------------------------------------------ #

    def _violation(self, kind: str, message: str, *, node: Any = None,
                   owner: Any = None) -> None:
        t = self._network.queue.now if self._network is not None else 0.0
        violation = SharedStateViolation(kind, message, node=node,
                                         owner=owner, t=t)
        if self.mode == "raise":
            raise violation
        self.violations.append(violation)
        rec = self._network._rec if self._network is not None else None
        if rec is not None:
            rec.record_violation(t, node, kind, message)

    # ------------------------------------------------------------------ #
    # Ownership check (called from the guarded __setattr__)
    # ------------------------------------------------------------------ #

    def on_attr_write(self, proc: Any, name: str) -> None:
        active = self.active_owner
        if active is _FRAMEWORK:
            return
        owner = proc.__dict__.get("_race_owner")
        if owner is None or owner == active:
            return
        self._violation(
            "cross-write",
            f"process {active!r} wrote attribute {name!r} of the process "
            f"owned by {owner!r} (cross-process shared state)",
            node=active, owner=owner,
        )

    # ------------------------------------------------------------------ #
    # Payload fingerprinting
    # ------------------------------------------------------------------ #

    @staticmethod
    def _fingerprint(payload: Any) -> str:
        return repr(payload)

    def note_scheduled(self, payload: Any) -> None:
        """Fingerprint one scheduled delivery of ``payload``.

        Called by the armed send path once per delivery it schedules
        (the fault adversary may fan one send into several deliveries, a
        corrupted copy, or none).
        """
        if payload is None or type(payload) in (int, float, str, bool,
                                                bytes):
            return  # immutable scalars cannot race
        entry = self._in_flight.get(id(payload))
        fp = self._fingerprint(payload)
        if entry is None:
            self._in_flight[id(payload)] = [fp, 1, payload]
            return
        if entry[0] != fp:
            self._violation(
                "payload-mutation",
                f"payload re-sent after mutation while earlier copies are "
                f"still in flight: now {fp[:120]!r}, was {entry[0][:120]!r}",
                node=self.active_owner,
            )
            entry[0] = fp  # report once per mutation, then re-arm
        entry[1] += 1

    def _check_delivered(self, frm: Any, to: Any, payload: Any) -> None:
        if payload is None or type(payload) in (int, float, str, bool,
                                                bytes):
            return
        entry = self._in_flight.get(id(payload))
        if entry is None:
            return  # adversary-synthesized payload (corruption copy)
        fp = self._fingerprint(payload)
        if entry[0] != fp:
            self._violation(
                "payload-mutation",
                f"payload from {frm!r} to {to!r} mutated between send and "
                f"delivery: sent {entry[0][:120]!r}, delivered {fp[:120]!r}",
                node=to, owner=frm,
            )
            entry[0] = fp
        entry[1] -= 1
        if entry[1] <= 0:
            del self._in_flight[id(payload)]  # receiver owns it now

    # ------------------------------------------------------------------ #
    # Hot-path wrappers (installed as instance attributes when armed)
    # ------------------------------------------------------------------ #

    def _wrap_deliver(self, inner: Callable[..., None]) -> Callable[..., None]:
        def _deliver(frm: Any, to: Any, payload: Any) -> None:
            self._check_delivered(frm, to, payload)
            prev = self.active_owner
            self.active_owner = to
            try:
                inner(frm, to, payload)
            finally:
                self.active_owner = prev
        return _deliver

    def _wrap_deliver_traced(self,
                             inner: Callable[..., None]) -> Callable[..., None]:
        def _deliver_traced(frm: Any, to: Any, payload: Any,
                            ref: int) -> None:
            self._check_delivered(frm, to, payload)
            prev = self.active_owner
            self.active_owner = to
            try:
                inner(frm, to, payload, ref)
            finally:
                self.active_owner = prev
        return _deliver_traced

    def _wrap_timer_fire(self, inner: Callable[..., None]) -> Callable[..., None]:
        def _timer_fire(node: Any, callback: Callable[[], None]) -> None:
            prev = self.active_owner
            self.active_owner = node
            try:
                inner(node, callback)
            finally:
                self.active_owner = prev
        return _timer_fire

    # Hooks for the cold paths Network guards explicitly. ----------------#

    def run_as(self, node: Any) -> _OwnerCtx:
        """Context manager attributing writes to ``node`` (cold paths)."""
        return _OwnerCtx(self, node)

    def owned_callback(self, node: Any,
                       callback: Callable[[], None]) -> Callable[[], None]:
        """Wrap a raw queue callback so its writes are attributed to ``node``
        (used for timers deferred across a crash, which bypass
        ``_timer_fire`` on recovery)."""
        def fire() -> None:
            prev = self.active_owner
            self.active_owner = node
            try:
                callback()
            finally:
                self.active_owner = prev
        return fire


class _OwnerCtx:
    __slots__ = ("_detector", "_node", "_prev")

    def __init__(self, detector: RaceDetector, node: Any) -> None:
        self._detector = detector
        self._node = node
        self._prev: Any = _FRAMEWORK

    def __enter__(self) -> _OwnerCtx:
        self._prev = self._detector.active_owner
        self._detector.active_owner = self._node
        return self

    def __exit__(self, *exc: Any) -> bool:
        self._detector.active_owner = self._prev
        return False
