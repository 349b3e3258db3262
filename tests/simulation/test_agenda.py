"""The agenda's ordering contract, as a property.

Whatever mix of ``call_at``, ``call_later`` and ``timeout`` entries is
scheduled, however many share an instant or land at ``now``, whichever
of them are cancelled before or after they fire, and however the run is
cut into ``run(until=)`` slices: the entries delivered are exactly the
live ones, in ``(time, scheduling order)``, and ``processed_events``
counts nothing else.
"""

from hypothesis import given, seed, settings, strategies as st

from repro.simulation.kernel import Simulator

KINDS = ("call_at", "call_later", "timeout")

# Offsets on a half-second grid make repeated instants common (and an
# offset of 0 schedules at ``now``); slice ends on a quarter-second grid
# land both on instants and between them.  Every value is exact in
# binary floating point, so ``now + delay`` meets ``call_at``'s time.
entry = st.tuples(
    st.sampled_from(KINDS),
    st.integers(0, 6).map(lambda k: k * 0.5),
    # Phase (counted from this one) whose start cancels the entry, if
    # any: 0 cancels it before it can fire; later phases may find it
    # already delivered.
    st.one_of(st.none(), st.integers(0, 3)),
)
phase = st.tuples(
    st.lists(entry, max_size=8),
    st.integers(0, 8).map(lambda k: k * 0.25),
)


def _schedule(sim, kind, offset, fire):
    if kind == "call_at":
        return sim.call_at(sim.now + offset, fire)
    if kind == "call_later":
        return sim.call_later(offset, fire)
    timeout = sim.timeout(offset)
    timeout.add_callback(lambda _event: fire())
    return timeout


@seed(20261018)
@settings(max_examples=300, deadline=None, database=None)
@given(st.lists(phase, min_size=1, max_size=5))
def test_delivery_is_live_entries_in_time_then_scheduling_order(phases):
    sim = Simulator()
    delivered = []
    fired_in = {}  # scheduling order -> phase that delivered it
    running = [0]
    # (time, scheduling order, handle, scheduling phase, cancelling phase)
    entries = []
    ends = []  # where each phase's run stops; the last runs to the end
    for index, (schedule, slice_length) in enumerate(phases + [([], None)]):
        for kind, offset, cancel_in in schedule:
            order = len(entries)

            def fire(order=order):
                delivered.append(order)
                fired_in[order] = running[0]

            handle = _schedule(sim, kind, offset, fire)
            cancel_at = None if cancel_in is None else index + cancel_in
            entries.append((sim.now + offset, order, handle, index, cancel_at))
        for _time, _order, handle, _index, cancel_at in entries:
            if cancel_at == index:
                handle.cancel()
        running[0] = index
        if slice_length is None:
            ends.append(float("inf"))
            sim.run()
        else:
            ends.append(sim.now + slice_length)
            sim.run(until=ends[-1])
            assert sim.now == ends[-1]

    # An entry is due in the first run from its own phase on that reaches
    # its time, and is live if nothing cancelled it before that run.
    due_in = {
        order: next(k for k in range(start, len(ends)) if ends[k] >= time)
        for time, order, _handle, start, _cancel_at in entries
    }
    live = sorted(
        (time, order)
        for time, order, _handle, _start, cancel_at in entries
        if cancel_at is None or due_in[order] < cancel_at
    )
    assert delivered == [order for _time, order in live]
    assert fired_in == {order: due_in[order] for _time, order in live}
    assert sim.processed_events == len(delivered)
