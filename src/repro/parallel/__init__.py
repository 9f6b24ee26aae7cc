"""Parallel runtime: MPI-like comm over pluggable transports (in-process
threads, length-prefixed TCP), the master-worker protocol with 1-D row and
2-D tile work plans, and the zero-copy dataset sharing of the process pool."""

from .comm import (
    ANY_SOURCE,
    ANY_TAG,
    Comm,
    CommGroup,
    CommStats,
    CommTimeoutError,
    TAG_PEER_LOST,
    Transport,
    default_timeout,
    run_ranks,
)
from .executor import SharedDatasetHandle, attach_shared_dataset, share_dataset
from .tiled import collect_worker_reports, tiled_worker_loop
from .transport import TcpListener, TcpTransport, spawn_local_workers

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Comm",
    "CommGroup",
    "CommStats",
    "CommTimeoutError",
    "SharedDatasetHandle",
    "TAG_PEER_LOST",
    "TcpListener",
    "TcpTransport",
    "Transport",
    "attach_shared_dataset",
    "collect_worker_reports",
    "default_timeout",
    "run_ranks",
    "share_dataset",
    "spawn_local_workers",
    "tiled_worker_loop",
]
