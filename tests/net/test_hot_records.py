"""Per-event and per-hop records carry no ``__dict__``.

``Event`` (one per scheduled callback), ``DisseminationPlan`` (the
compiled per-hop path) and ``Flood`` (one per broadcast, carried by every
reception event) are allocated or touched on every event or hop.  Each
declares ``__slots__``; a refactor that drops the declaration, or a
subclass without its own, grows a ``__dict__`` back onto every instance,
which no behaviour test notices.
"""

import pytest

from repro.net.network import DisseminationPlan, Flood
from repro.sim.events import BucketedEventQueue, Event

INSTANCES = {
    Event: lambda: BucketedEventQueue().push(0.0, print, ""),
    DisseminationPlan: lambda: DisseminationPlan(0, 0, {}),
    Flood: lambda: Flood(0, 0, None),
}


def with_subclasses(cls):
    yield cls
    for subclass in cls.__subclasses__():
        yield from with_subclasses(subclass)


@pytest.mark.parametrize("root", INSTANCES, ids=lambda cls: cls.__name__)
def test_hot_records_and_their_subclasses_have_no_instance_dict(root):
    assert not hasattr(INSTANCES[root](), "__dict__")
    for cls in with_subclasses(root):
        # A non-zero offset is the slot CPython reserves for an instance dict.
        assert cls.__dictoffset__ == 0, f"{cls.__qualname__} instances carry a __dict__"
