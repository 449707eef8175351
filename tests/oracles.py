"""Closed-form and scalar oracles the tests hold the program to.

The program never calls these: each restates, the slow or the obvious
way, a quantity the program computes some other way.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np

from repro.bench.gate import SCHEMA, SUITES
from repro.graph.graph import Graph
from repro.sim.network import Network
from repro.sim.rdma import ACK_BYTES, READ_REQUEST_BYTES


def brute_force_z(
    pi_a: np.ndarray, pi_b: np.ndarray, y: int, beta: np.ndarray, delta: float
) -> float:
    """O(K^2) normalizer ``Z_ab = sum_{k,l} f_ab(k,l)``.

    ``f_ab(k,l) = B_k pi_ak pi_bk`` on the diagonal and
    ``D pi_ak pi_bl`` off-diagonal (paper Eqn after Eqn 4).
    """
    k = beta.shape[0]
    d = delta**y * (1 - delta) ** (1 - y)
    total = 0.0
    for i in range(k):
        for j in range(k):
            if i == j:
                b = beta[i] ** y * (1 - beta[i]) ** (1 - y)
                total += b * pi_a[i] * pi_b[i]
            else:
                total += d * pi_a[i] * pi_b[j]
    return float(total)


def edge_key(a: int, b: int, n: int) -> int:
    """Scalar :func:`repro.graph.graph.edge_keys`: the canonical key of the
    undirected pair (a, b) in an n-vertex graph."""
    if a == b:
        raise ValueError(f"self-loop ({a},{a}) has no edge key")
    lo, hi = (a, b) if a < b else (b, a)
    return int(lo) * n + int(hi)


def has_edge(graph: Graph, a: int, b: int) -> bool:
    """Scalar ``y_ab``: one binary search of the sorted edge keys."""
    if a == b:
        return False
    key = edge_key(a, b, graph.n_vertices)
    i = np.searchsorted(graph.keys, key)
    return bool(i < graph.keys.size and graph.keys[i] == key)


def uncontended_transfer_time(net: Network, nbytes: int) -> float:
    """Closed-form time of one message on an idle fabric."""
    p = net.params
    return p.per_message_overhead + p.serialization_time(nbytes) + p.latency


def uncontended_read_time(net: Network, nbytes: int) -> float:
    """Closed-form time of one RDMA READ on an idle fabric."""
    return uncontended_transfer_time(net, READ_REQUEST_BYTES) + uncontended_transfer_time(
        net, nbytes
    )


def uncontended_write_time(net: Network, nbytes: int) -> float:
    """Closed-form time of one RDMA WRITE (including ACK) on an idle fabric."""
    return uncontended_transfer_time(net, nbytes) + uncontended_transfer_time(net, ACK_BYTES)


def load_report(path: str | Path) -> dict[str, Any]:
    """A bench report as ``repro bench`` writes it, schema and suite checked."""
    report = json.loads(Path(path).read_text())
    if report.get("schema") != SCHEMA or report.get("suite") not in SUITES:
        raise ValueError(
            f"{path}: expected schema {SCHEMA!r} and a suite in {SUITES}, got "
            f"{report.get('schema')!r} / {report.get('suite')!r}"
        )
    return report


def stored_top_k_table(pi: np.ndarray, top_k: int) -> tuple[np.ndarray, np.ndarray]:
    """The top-``K`` table a format-2 artifact stored, computed over the
    whole ``(N, K)`` array at once as its writer did: per row, the
    ``top_k`` largest (argpartition at ``K - top_k``) ordered by weight
    with a stable sort; ``(int32 communities, weights)``."""
    k = pi.shape[1]
    top_k = min(int(top_k), k)
    if top_k < k:
        idx = np.argpartition(pi, k - top_k, axis=1)[:, k - top_k:]
    else:
        idx = np.broadcast_to(np.arange(k), pi.shape).copy()
    w = np.take_along_axis(pi, idx, axis=1)
    order = np.argsort(-w, axis=1, kind="stable")
    return (
        np.take_along_axis(idx, order, axis=1).astype(np.int32),
        np.take_along_axis(w, order, axis=1),
    )
