"""Graph serialization: SNAP edge lists, compact NPZ, and a mmap CSR container.

SNAP distributes graphs as whitespace-separated edge lists with ``#``
comments; :func:`load_edge_list` accepts that format (so real downloads can
be dropped in where the synthetic stand-ins are used today), and
:func:`save_npz` / :func:`load_npz` provide a fast binary round-trip for
generated datasets.

For graphs that should not be re-parsed or re-sorted on every load,
:func:`save_csr` / :func:`load_csr` persist the *already-canonical* CSR
arrays (``keys``/``indptr``/``indices``, 24 bytes per edge) in a
:mod:`repro.store` container — one raw ``.npy`` per array plus a
sha256-sealed manifest — so :func:`load_csr` can hand read-only memory
maps straight to :meth:`repro.graph.graph.Graph.from_csr`: load time is
O(manifest) and RSS grows only with the pages a workload actually
touches. ``repro convert-graph`` builds the container once from an edge
list or NPZ.
"""

from __future__ import annotations

import itertools
import warnings
from pathlib import Path
from typing import Union

import numpy as np

from repro.graph.graph import Graph
from repro.store import ArrayProvider, Container, StoreError, write_container

PathLike = Union[str, Path]

GRAPH_CSR_KIND = "repro-graph-csr/1"

# Lines fed to the tokenizer per chunk in load_edge_list. Bounds parser
# peak memory at ~chunk size regardless of file size.
_CHUNK_LINES = 1 << 16


#: per-chunk streaming dedup canonicalizes raw pairs under this fixed
#: radix, so ids must stay below it; larger ids fall back to one final
#: dedup pass (and would overflow Graph's own int64 keys long before).
_DEDUP_RADIX = np.int64(1) << 32


def load_edge_list(
    path: PathLike,
    n_vertices: int | None = None,
    chunk_lines: int = _CHUNK_LINES,
    dedup: bool = True,
) -> Graph:
    """Load a SNAP-format edge list, stream-parsing in bounded chunks.

    Vertex ids are remapped densely (SNAP files have sparse id spaces) in
    sorted order unless ``n_vertices`` is given, in which case ids are
    taken literally and must be < n_vertices. Duplicate undirected edges
    (repeated *or* reversed — SNAP lists each undirected edge twice) and
    self-loops are dropped either way; ``dedup`` only selects *when*:

    - ``dedup=True`` (default): duplicates are folded away per chunk
      against the running unique set, so peak memory tracks the number
      of *unique* edges — the right mode for streaming sources that
      replay dirty, repetitive data.
    - ``dedup=False``: the legacy whole-file pass — every raw pair is
      kept until the end and deduplicated once. Identical result, higher
      peak memory on files with many repeats.

    ``#`` comment lines and blank lines are ignored anywhere in the file.
    The file is parsed ``chunk_lines`` lines at a time through NumPy's C
    tokenizer, and self-loops are dropped per chunk, so peak parser
    memory is O(chunk) + O(edges kept) instead of the whole-text +
    whole-array peak a single ``np.loadtxt`` call incurs.
    """
    if chunk_lines <= 0:
        raise ValueError("chunk_lines must be positive")
    parts: list[np.ndarray] = []
    kept_keys: np.ndarray | None = None  # sorted unique canonical keys so far
    kept_pairs: np.ndarray | None = None  # matching (lo, hi) rows
    streaming = bool(dedup)
    n_cols: int | None = None
    with open(path, "r", encoding="utf-8") as fh:
        while True:
            lines = list(itertools.islice(fh, chunk_lines))
            if not lines:
                break
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # empty-chunk warning
                arr = np.loadtxt(lines, comments="#", dtype=np.int64, ndmin=2)
            if arr.size == 0:
                continue  # all-comment / all-blank chunk
            if n_cols is None:
                n_cols = arr.shape[1]
                if n_cols != 2:
                    raise ValueError(f"expected 2 columns, got {n_cols}")
            elif arr.shape[1] != n_cols:
                raise ValueError(f"inconsistent column count: {arr.shape[1]} != {n_cols}")
            arr = arr[arr[:, 0] != arr[:, 1]]
            if streaming and arr.size and int(arr.max()) >= int(_DEDUP_RADIX >> 1):
                # Ids too large for the fixed-radix keys: migrate to the
                # accumulate-then-dedup path (same result).
                streaming = False
                if kept_pairs is not None:
                    parts.append(kept_pairs)
                    kept_keys = kept_pairs = None
            if not streaming:
                parts.append(arr)
                continue
            if arr.size == 0:
                continue
            lo = np.minimum(arr[:, 0], arr[:, 1])
            hi = np.maximum(arr[:, 0], arr[:, 1])
            keys = lo * _DEDUP_RADIX + hi
            keys, idx = np.unique(keys, return_index=True)
            pairs = np.column_stack([lo, hi])[idx]
            if kept_keys is not None and kept_keys.size:
                fresh = (
                    np.searchsorted(kept_keys, keys)
                    >= kept_keys.size
                ) | (
                    kept_keys[np.minimum(np.searchsorted(kept_keys, keys),
                                         kept_keys.size - 1)]
                    != keys
                )
                keys, pairs = keys[fresh], pairs[fresh]
                merged = np.concatenate([kept_keys, keys])
                order = np.argsort(merged, kind="stable")
                kept_keys = merged[order]
                kept_pairs = np.concatenate([kept_pairs, pairs])[order]
            else:
                kept_keys, kept_pairs = keys, pairs
    if kept_pairs is not None:
        raw = kept_pairs
    elif parts:
        raw = np.concatenate(parts) if len(parts) > 1 else parts[0]
    else:
        raise ValueError(f"no edges in {path}")
    if raw.size == 0:
        raise ValueError(f"no edges in {path}")
    if n_vertices is None:
        ids, inverse = np.unique(raw, return_inverse=True)
        raw = inverse.reshape(raw.shape)
        n_vertices = int(ids.size)
    lo = np.minimum(raw[:, 0], raw[:, 1])
    hi = np.maximum(raw[:, 0], raw[:, 1])
    keys = lo * np.int64(n_vertices) + hi
    _, idx = np.unique(keys, return_index=True)
    return Graph(n_vertices, np.column_stack([lo, hi])[idx])


def save_edge_list(graph: Graph, path: PathLike, header: str = "") -> None:
    """Write a SNAP-style edge list (one canonical direction per edge)."""
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            for line in header.splitlines():
                fh.write(f"# {line}\n")
        fh.write(f"# Nodes: {graph.n_vertices} Edges: {graph.n_edges}\n")
        np.savetxt(fh, graph.edges, fmt="%d")


def save_npz(graph: Graph, path: PathLike) -> None:
    """Binary round-trip save."""
    np.savez_compressed(str(path), n_vertices=graph.n_vertices, edges=graph.edges)


def load_npz(path: PathLike) -> Graph:
    """Load a graph saved by :func:`save_npz`."""
    with np.load(str(path)) as data:
        return Graph(int(data["n_vertices"]), data["edges"])


# -- mmap CSR container ------------------------------------------------------


def save_csr(graph: Graph, path: PathLike) -> Path:
    """Persist a graph's canonical CSR arrays as a store container.

    The container holds ``keys`` (m,), ``indptr`` (N+1,) and ``indices``
    (2m,) exactly as :class:`Graph` keeps them — canonicalized, deduped,
    row-sorted — so :func:`load_csr` can adopt the mapped bytes without
    any re-sorting.
    """
    return write_container(
        path,
        {
            "keys": graph.keys,
            "indptr": graph._csr_indptr,
            "indices": graph._csr_indices,
        },
        kind=GRAPH_CSR_KIND,
        meta={"n_vertices": int(graph.n_vertices), "n_edges": int(graph.n_edges)},
    )


def load_csr(
    path: PathLike,
    provider: Union[str, ArrayProvider, None] = "mmap",
    validate: bool = False,
) -> Graph:
    """Open a CSR container as a :class:`Graph` over provider-backed arrays.

    With the default ``mmap`` provider the arrays are read-only memory
    maps: construction touches only the manifest and the ``.npy``
    headers, and samplers/serving pull pages in on demand (one physical
    copy shared across processes through the page cache).

    ``Graph`` adopts all three arrays at construction, so any digest
    verification here would be eager by definition: the container opens
    with ``verify="none"``. The sealed manifest and per-array header
    checks still run (O(manifest)); content digests are left to
    :meth:`Container.verify_all`. ``validate=True`` additionally runs
    :meth:`Graph.from_csr`'s structural invariants. The ``edges`` member
    that containers written before E was kept once also hold is ignored.
    """
    c = Container(path, provider=provider, verify="none")
    if c.kind != GRAPH_CSR_KIND:
        raise StoreError(path, f"not a graph CSR container (kind={c.kind!r})")
    return Graph.from_csr(
        n_vertices=int(c.meta["n_vertices"]),
        keys=c.array("keys"),
        indptr=c.array("indptr"),
        indices=c.array("indices"),
        validate=validate,
    )


def convert_graph(
    input_path: PathLike, output_path: PathLike, n_vertices: int | None = None
) -> Graph:
    """Build a CSR container from an edge list or NPZ (``repro convert-graph``).

    ``.npz`` inputs load through :func:`load_npz`; anything else is
    parsed as a SNAP edge list. Returns the loaded graph after writing
    the container to ``output_path``.
    """
    input_path = Path(input_path)
    if input_path.suffix == ".npz":
        graph = load_npz(input_path)
    else:
        graph = load_edge_list(input_path, n_vertices=n_vertices)
    save_csr(graph, output_path)
    return graph
