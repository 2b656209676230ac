"""Clean counterpart for slots-discipline: every hot class is slotted."""


class Event:
    __slots__ = ("time", "label")

    def __init__(self, time, label):
        self.time = time
        self.label = label


class TimerEvent(Event):
    __slots__ = ()


class DisseminationPlan:
    __slots__ = ("hops",)

    def __init__(self, hops):
        self.hops = hops


class Flood:
    __slots__ = ("flood_id", "delivered")

    def __init__(self, flood_id):
        self.flood_id = flood_id
        self.delivered = set()


class ColdRecord:  # not a hot-path class: a __dict__ is fine here
    def __init__(self, note):
        self.note = note
