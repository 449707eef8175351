"""Online inference serving for trained a-MMSB posteriors.

The train->serve stack: export an immutable versioned
:class:`~repro.serve.artifact.ModelArtifact` from a model state (one
container that is also its checkpoint), answer queries through the vectorized
:class:`~repro.serve.engine.QueryEngine`, and put the micro-batching
:class:`~repro.serve.server.ModelServer` (bounded queue, request
coalescing, LRU cache, zero-downtime hot-swap) in front of traffic.
See DESIGN.md section 9.
"""

from repro.serve.artifact import (
    ArtifactCorrupt,
    ArtifactError,
    ModelArtifact,
    build_artifact,
    export_artifact,
    load_artifact,
    save_artifact,
)
from repro.serve.engine import QueryEngine
from repro.serve.metrics import LatencyHistogram, ServerMetrics
from repro.serve.server import ModelServer, ServerOverloaded

__all__ = [
    "ArtifactCorrupt",
    "ArtifactError",
    "ModelArtifact",
    "build_artifact",
    "export_artifact",
    "load_artifact",
    "save_artifact",
    "QueryEngine",
    "LatencyHistogram",
    "ServerMetrics",
    "ModelServer",
    "ServerOverloaded",
]
