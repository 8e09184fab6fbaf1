"""Web substrate: pages, origin servers, CDNs, and the simulated HTTP GET."""

from .page import WebPage
from .server import OriginServer
from .cdn import CDNProvider, CdnDeployment
from .http import DownloadResult, HttpClient

__all__ = [
    "WebPage",
    "OriginServer",
    "CDNProvider",
    "CdnDeployment",
    "DownloadResult",
    "HttpClient",
]
