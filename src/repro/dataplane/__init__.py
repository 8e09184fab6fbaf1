"""Data plane: forwarding paths, throughput model, simulation clock."""

from .clock import SimulationClock
from .path import ForwardingPath
from .performance import ThroughputModel

__all__ = [
    "SimulationClock",
    "ForwardingPath",
    "ThroughputModel",
]
