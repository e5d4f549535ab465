"""The message network: latency, loss under partition, site failures.

Messages travel point-to-point with a fixed latency over the
:class:`~repro.sim.topology.Topology`.  A message is delivered only if, at
*delivery* time, both endpoints are up and lie in the same partition --
otherwise it is silently lost (the paper's model: messages may be lost;
corruption is detectable and hence modelled as loss).  Delivery order
between a pair of sites follows send order (FIFO links) because the
latency is constant and the engine breaks ties by schedule order.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable

from ..errors import NetworkError
from ..obs.causal import MESSAGE_PHASES, NULL_CAUSAL, CausalTracer, NullCausalTracer
from ..obs.metrics import NULL_REGISTRY, MetricsRegistry
from ..sim.engine import Simulator
from ..sim.topology import Topology
from ..types import SiteId
from .messages import Message

__all__ = ["MessageNetwork"]


class MessageNetwork:
    """Deliver messages between sites over a failing topology.

    ``metrics`` (optional) collects per-message-type counters under
    ``netsim.message.*``; ``causal`` (optional) is the cluster's
    :class:`~repro.obs.causal.CausalTracer` -- when enabled, every send
    stamps the outgoing message with its send event's context, and every
    delivery (or loss) is causally parented on that send.
    """

    def __init__(
        self,
        simulator: Simulator,
        topology: Topology,
        latency: float = 0.01,
        metrics: MetricsRegistry | None = None,
        transport: Callable[[SiteId, SiteId, Message], None] | None = None,
        causal: CausalTracer | NullCausalTracer | None = None,
    ) -> None:
        if latency <= 0:
            raise NetworkError(f"latency must be positive: {latency}")
        self._simulator = simulator
        self._topology = topology
        self._latency = latency
        self._metrics = metrics if metrics is not None else NULL_REGISTRY
        self._causal = causal if causal is not None else NULL_CAUSAL
        self._transport = transport
        self._handlers: dict[SiteId, Callable[[SiteId, Message], None]] = {}
        self._sent = 0
        self._delivered = 0
        self._lost = 0

    @property
    def latency(self) -> float:
        """One-way message latency."""
        return self._latency

    @property
    def statistics(self) -> dict[str, int]:
        """Counters: sent / delivered / lost."""
        return {
            "sent": self._sent,
            "delivered": self._delivered,
            "lost": self._lost,
        }

    def register(
        self, site: SiteId, handler: Callable[[SiteId, Message], None]
    ) -> None:
        """Attach a site's message handler (``handler(sender, message)``)."""
        if site not in self._topology.sites:
            raise NetworkError(f"unknown site {site!r}")
        self._handlers[site] = handler

    def send(self, source: SiteId, destination: SiteId, message: Message) -> None:
        """Send a message; it arrives after the latency if a path survives.

        Sending from a down site is a programming error (fail-stop sites do
        nothing); sending *to* any site is always allowed -- the loss
        decision happens at delivery time, so failures occurring while the
        message is in flight lose it, as they should.
        """
        if destination not in self._topology.sites:
            raise NetworkError(f"unknown destination {destination!r}")
        if not self._topology.is_up(source):
            raise NetworkError(f"down site {source!r} cannot send")
        self._sent += 1
        if self._metrics.enabled:
            self._metrics.counter(
                f"netsim.message.sent.{type(message).__name__}"
            ).inc()
        if self._causal.enabled:
            name = type(message).__name__
            ctx = self._causal.emit(
                "send",
                self._simulator.now,
                parents=(self._causal.current,),
                site=source,
                run_id=message.run_id,
                message=name,
                destination=destination,
                phase=MESSAGE_PHASES.get(name, "message"),
            )
            message = dataclasses.replace(message, ctx=ctx)
        if self._transport is not None:
            self._transport(source, destination, message)
            return
        self._simulator.schedule(
            self._latency, lambda: self._deliver(source, destination, message)
        )

    def broadcast(
        self, source: SiteId, destinations, message_for: Callable[[SiteId], Message]
    ) -> None:
        """Send an individually constructed message to several sites."""
        for destination in destinations:
            self.send(source, destination, message_for(destination))

    def deliver_now(
        self, source: SiteId, destination: SiteId, message: Message
    ) -> str | None:
        """Deliver (or lose) a message immediately; return the loss reason.

        The deterministic checker's transport hook queues messages instead
        of scheduling them, then calls this when its schedule says the
        message arrives.  The loss decision is identical to the stochastic
        path: both endpoints must be up and mutually reachable at delivery
        time.  Returns ``None`` on delivery, else the loss reason.
        """
        return self._deliver(source, destination, message)

    def _deliver(
        self, source: SiteId, destination: SiteId, message: Message
    ) -> str | None:
        lost_reason = None
        if not self._topology.is_up(source) or not self._topology.is_up(destination):
            lost_reason = "endpoint down"
        else:
            partition = self._topology.partition_of(source)
            if partition is None or destination not in partition:
                lost_reason = "partitioned"
        if lost_reason is not None:
            self._lost += 1
            if self._metrics.enabled:
                self._metrics.counter(
                    f"netsim.message.lost.{lost_reason.replace(' ', '-')}"
                ).inc()
            if self._causal.enabled:
                name = type(message).__name__
                self._causal.emit(
                    "lose",
                    self._simulator.now,
                    parents=(message.ctx,),
                    site=destination,
                    run_id=message.run_id,
                    message=name,
                    source=source,
                    reason=lost_reason,
                    phase=MESSAGE_PHASES.get(name, "message"),
                )
            return lost_reason
        handler = self._handlers.get(destination)
        if handler is None:
            self._lost += 1
            return "no handler"
        self._delivered += 1
        if self._metrics.enabled:
            self._metrics.counter(
                f"netsim.message.delivered.{type(message).__name__}"
            ).inc()
        if self._causal.enabled:
            name = type(message).__name__
            ctx = self._causal.emit(
                "deliver",
                self._simulator.now,
                parents=(message.ctx,),
                site=destination,
                run_id=message.run_id,
                message=name,
                source=source,
                phase=MESSAGE_PHASES.get(name, "message"),
            )
            with self._causal.scope(ctx):
                handler(source, message)
        else:
            handler(source, message)
        return None
