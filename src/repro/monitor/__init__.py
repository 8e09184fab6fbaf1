"""The paper's monitoring tool (Fig 2) and its measurement database."""

from .vantage import VantagePoint, VantageKind
from .database import (
    DnsObservation,
    DownloadObservation,
    MeasurementDatabase,
    PageCheck,
    PathObservation,
)
from .download import probe_page, run_converging_loop
from .scheduler import SlotScheduler
from .tool import MonitoringTool, VantageEnvironment
from .aggregate import CentralRepository
from .export import export_database, export_repository

__all__ = [
    "VantagePoint",
    "VantageKind",
    "DnsObservation",
    "DownloadObservation",
    "MeasurementDatabase",
    "PageCheck",
    "PathObservation",
    "probe_page",
    "run_converging_loop",
    "SlotScheduler",
    "MonitoringTool",
    "VantageEnvironment",
    "CentralRepository",
    "export_database",
    "export_repository",
]
