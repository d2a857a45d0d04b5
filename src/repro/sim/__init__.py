"""Simulation engines.

The compiled bit-parallel simulator is the one production engine; the
event-driven 0/1/X simulator is an independent verification reference.
The package also holds the testbench framework and activity tracing.  See
``docs/simulators.md`` for when to use which engine.
"""

from .activity import ActivityTrace, NetActivity, collect_net_activity
from .compiled import CompiledSimulator
from .event import ClockGenerator, EventDrivenSimulator
from .logic import ONE, X, ZERO, broadcast, eval3, extract_lane, lane_mask
from .testbench import GoldenTrace, LoopbackPath, ScheduleBuilder, Testbench

__all__ = [
    "ActivityTrace",
    "NetActivity",
    "collect_net_activity",
    "CompiledSimulator",
    "ClockGenerator",
    "EventDrivenSimulator",
    "ONE",
    "X",
    "ZERO",
    "broadcast",
    "eval3",
    "extract_lane",
    "lane_mask",
    "GoldenTrace",
    "LoopbackPath",
    "ScheduleBuilder",
    "Testbench",
]
