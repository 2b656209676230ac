"""Planted bugs for the fuzzer meta-tests.

A fuzzer that never finds anything proves nothing — these builders plant
two deliberate, realistic bugs for `test_planted_mutants.py` to hunt.
Each is a :class:`~repro.session.builder.SessionBuilder` subclass that the
:class:`~repro.fuzz.detect.Detector` uses for every run (its
``builder_factory`` hook), so the mutation applies to detection *and* to
every shrink re-verification — the shrinker chases the planted bug
through the same broken build.

* **Mutant A (commit rule)** — honest EESMR replicas are replaced by
  :class:`ForkOnEquivocation`, which reacts to an equivocation proof by
  *committing* one of the twins (chosen by pid parity) instead of blaming.
  Any schedule containing an ``EquivocateAt`` forks the cluster — an
  agreement violation.  The same mutation style as the PR 1 forking-mutant
  meta-test, now found by search instead of by hand.
* **Mutant B (relay restore)** — the network's ``allow_relay`` is made a
  no-op, so every ``RelayDropWindow`` heal leaks its relay denial: windows
  accumulate permanent non-relaying nodes.  Enough windows on distinct
  ring neighbours eventually disconnect a correct node — a liveness
  violation.  This is exactly the class of bug the refcounted
  deny/allow-relay machinery exists to prevent (the PR 3
  composition-window regressions).
* **Mutant C (dropped catch-up QC)** — sync responders stop attaching the
  certificate that covers the suffix tip.  Certificate-requiring
  protocols (Sync HotStuff, OptSync) then refuse every catch-up adoption,
  the recovering node burns its whole retry budget and gives up — and
  because the give-up path outlives ``heal + CATCH_UP_GRACE``, the node's
  window-scoped liveness exemption lapses and the liveness invariant
  fires.  This is the mutant the window-scoped exemption exists to catch:
  under the old permanent-pardon semantics it would have been invisible.
* **Mutant D (retransmission give-up)** — the reliable-delivery
  sublayer's retry budget is zeroed, so every delivery a ``LossWindow``
  drops is abandoned on the spot instead of retried.  Honest retry chains
  straddle short loss windows and recover once loss subsides; the mutant
  leaves the lossy node permanently short of floods, it stalls below the
  target height, and the liveness invariant fires once the window's
  bounded allowance (``LossWindow.exemption_end``) expires.  This is the
  mutant the degradation-aware allowance exists to catch: a blanket
  loss-window exemption would have pardoned it forever.
* **Timer-table mutants** — one row of the protocol's ``TIMERS`` table
  (name -> multiple of Δ) takes another value on every replica: EESMR
  ``commit`` 4 -> 5, Sync HotStuff ``commit`` 2 -> 3, EESMR ``blame``
  4 -> 6, Sync HotStuff ``quit-view`` 2 -> 3.  Every timer reads its row
  through ``LeaderReplica.timer_delay``, so each is a one-entry edit.
  ``tests/core/test_timer_tables.py`` records which checks catch them.
"""

import dataclasses

from repro.core.eesmr.replica import EesmrReplica
from repro.session import Session, SessionBuilder


class ForkOnEquivocation(EesmrReplica):
    """Deliberately broken: commits an equivocated round immediately,
    choosing between the twins by pid parity — even and odd nodes commit
    conflicting blocks at the same height."""

    def _handle_equivocation(self, view, first, second):
        self.commit_timers.cancel_all()
        twins = sorted((first.data, second.data), key=lambda block: block.block_hash)
        choice = twins[0] if self.pid % 2 == 0 else twins[1]
        self.store_block(choice)
        self.commit_chain(choice)


class CommitRuleMutantBuilder(SessionBuilder):
    """Mutant A: every *honest* EESMR node runs the broken commit rule.

    Byzantine substitutions from the fault schedule are left intact — the
    schedule still needs an ``EquivocateAt`` to produce the twins the
    broken rule mis-commits.
    """

    def _eesmr_class_for(self, pid):
        cls, kwargs = super()._eesmr_class_for(pid)
        if cls is EesmrReplica:
            return ForkOnEquivocation, kwargs
        return cls, kwargs


class LeakyRelayMutantBuilder(SessionBuilder):
    """Mutant B: relay denials are never popped — window heals leak."""

    def build(self) -> Session:
        session = super().build()
        session.network.allow_relay = lambda pid: None
        return session


class RetransmissionGiveUpMutantBuilder(SessionBuilder):
    """Mutant D: the reliable sublayer never retries — drops are final.

    Zeroing the budget in the impairment model's spec — the one place
    the reliable sublayer reads it from — makes every impairment drop take
    the give-up path immediately, exactly the failure mode a
    silently-exhausted retry configuration would produce in deployment.
    """

    def build(self) -> Session:
        session = super().build()
        model = session.network.configure_impairment(None)
        model.spec = dataclasses.replace(model.spec, max_retries=0)
        return session


class DroppedCatchUpQcMutantBuilder(SessionBuilder):
    """Mutant C: sync responders drop the final catch-up certificate.

    Per-instance ``sync_serve_certificates = False`` shadows the class
    attribute, so every ``SYNC_RESPONSE`` ships its block suffix bare.
    Protocols with a ``tip_certificate`` never adopt an
    uncertified suffix, so their recovering nodes retry to exhaustion and
    give up past the catch-up grace window.
    """

    def build(self) -> Session:
        session = super().build()
        for replica in session.replicas.values():
            replica.sync_serve_certificates = False
        return session


class TimerTableMutantBuilder(SessionBuilder):
    """A timer mutant: every replica's ``TIMERS`` row ``timer`` is ``multiple`` Δ.

    Bind the edit with ``functools.partial(TimerTableMutantBuilder,
    timer="commit", multiple=5)`` to get a builder factory.  The row must
    exist: a mutant of a timer the protocol does not have changes nothing.
    """

    def __init__(self, spec, *, timer: str, multiple: int, **kwargs) -> None:
        super().__init__(spec, **kwargs)
        self.timer = timer
        self.multiple = multiple

    def build(self) -> Session:
        session = super().build()
        for replica in session.replicas.values():
            if self.timer not in replica.TIMERS:
                raise KeyError(f"{type(replica).__name__} has no timer {self.timer!r}")
            # An instance attribute shadows the class table for this run only.
            replica.TIMERS = {**replica.TIMERS, self.timer: self.multiple}
        return session
