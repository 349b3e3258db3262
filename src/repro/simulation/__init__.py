"""Discrete-event simulation kernel.

The kernel is deliberately small and self-contained: a binary-heap event
queue, a simulated clock, and generator-based processes in the style of
SimPy.  A process is a Python generator that yields :class:`Event` objects;
the kernel resumes the generator when the yielded event fires.

Typical usage::

    from repro.simulation import Simulator

    sim = Simulator()

    def worker(sim):
        yield sim.timeout(5.0)
        print("woke at", sim.now)

    sim.spawn(worker(sim))
    sim.run()
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.simulation.event": ("Event", "Timeout", "AllOf", "AnyOf"),
    "repro.simulation.kernel": ("Simulator", "Process"),
    "repro.simulation.random_source": ("RandomSource",),
})
