"""Web substrate: pages, origin servers, CDNs, and the simulated HTTP client."""

from .page import WebPage
from .server import OriginServer
from .cdn import CDNProvider, CdnDeployment
from .http import DownloadSession, HttpClient

__all__ = [
    "WebPage",
    "OriginServer",
    "CDNProvider",
    "CdnDeployment",
    "DownloadSession",
    "HttpClient",
]
