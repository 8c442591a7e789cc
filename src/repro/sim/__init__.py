"""Discrete-event simulation kernel.

A from-scratch, generator-based DES in the style of SimPy, sized for
simulating cluster storage protocols.  Processes are Python generators
that ``yield`` events; the :class:`~repro.sim.core.Environment` advances
simulated time through a binary-heap event queue with deterministic
tie-breaking.

Typical use::

    from repro.sim import Environment

    env = Environment()

    def hello(env):
        yield env.timeout(1.5)
        print("t =", env.now)

    env.process(hello(env))
    env.run()
"""

from repro.sim.events import AllOf, Event, PopScript, Timeout
from repro.sim.core import URGENT, Environment, Process, SimulationError
from repro.sim.resources import Resource
from repro.sim.shared import BandwidthLink
from repro.sim.sync import Barrier, CountdownLatch, Mutex
from repro.sim.rand import RandomStreams

__all__ = [
    "AllOf",
    "BandwidthLink",
    "Barrier",
    "CountdownLatch",
    "Environment",
    "Event",
    "Mutex",
    "PopScript",
    "Process",
    "RandomStreams",
    "Resource",
    "SimulationError",
    "Timeout",
    "URGENT",
]
