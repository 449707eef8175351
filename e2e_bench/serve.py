"""``serve_mixed``: one closed-loop client against a hot-swapping server.

A single client thread keeps ``outstanding`` futures in flight against
``ModelServer(n_workers=1)``: it submits the next pre-generated request
as soon as the oldest one completes, so a slower server receives less
load (closed loop). Every ``swap_every`` requests it publishes the other
artifact with ``publish_path`` — reads beside writes. A request's
latency runs from its submit to the moment its future completes (stamped
by a done-callback on the worker thread). Every ``block`` requests the
client lets the requests in flight finish and reads the host probe while
the server is idle (``util.HostProbe``); a block's wall time and its
requests' latencies are reported as the nominal host would have shown them.
"""

from __future__ import annotations

import os
import time
from collections import deque
from functools import partial
from pathlib import Path
from typing import Optional

import numpy as np

from repro.config import AMMSBConfig
from repro.core.state import ModelState
from repro.graph.generators import sample_mixed_membership
from repro.serve.artifact import build_artifact, load_artifact, save_artifact
from repro.serve.engine import QueryEngine
from repro.serve.server import ModelServer

from e2e_bench.spec import ServeSize
from e2e_bench.trace import Tracer
from e2e_bench.util import Outcome, digest, host_factor, summary

LINK, MEMBERSHIP, RECOMMEND = 0, 1, 2
RESULT_TIMEOUT_S = 60.0
#: uniform pairs scored once during set-up: a correctness probe, and the
#: model-quality stand-in this workload reports as heldout_perplexity
PROBE_PAIRS = 4096


def reference_link_probability(pi, beta, delta, pairs) -> np.ndarray:
    """The model's p(y=1), written out here independently of the engine."""
    a, b = pi[pairs[:, 0]], pi[pairs[:, 1]]
    overlap = a * b
    p = (overlap * beta).sum(axis=1) + (1.0 - overlap.sum(axis=1)) * delta
    return np.clip(p, 1e-12, 1.0 - 1e-12)


class Workload:
    """Set-up (requests, artifacts, server, probe, warm-up requests) in
    ``__init__``; :meth:`measure` drives the timed requests."""

    def __init__(self, size: ServeSize, seed: int, workdir: Path) -> None:
        self.size = size
        # The client and the server thread hand every request back and forth
        # and the GIL lets one of them run Python at a time, so a second CPU
        # buys no throughput here (2 510 vs 2 575 req/s over 8 alternating
        # pairs) — but on two vCPUs every hand-off is a cross-vCPU wake-up
        # whose cost is the host's: link_p99_ms spread 18% over those runs on
        # two CPUs, 4-7% on one. Not CPU 0, which takes the guest's interrupts.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        rng = np.random.default_rng([seed, 3])
        config = AMMSBConfig(
            n_communities=size.k, kernel_backend="fused", dtype="float64", seed=seed
        )
        total = size.warmup + size.requests
        p_link, p_membership, p_recommend = size.mix
        self.kinds = rng.choice(2, size=total, p=[p_link / (p_link + p_membership), p_membership / (p_link + p_membership)])
        period = round(1 / p_recommend)  # one recommend per period, see ServeSize.mix
        self.kinds[(np.arange(total) - rng.integers(0, period)) % period == 0] = RECOMMEND
        popularity = np.arange(1, size.n_nodes + 1, dtype=np.float64) ** -size.zipf
        popularity /= popularity.sum()
        ids = rng.permutation(size.n_nodes)
        self.nodes = ids[rng.choice(size.n_nodes, size=total, p=popularity)]
        self.pairs = ids[
            rng.choice(size.n_nodes, size=(total, size.pairs_per_link, 2), p=popularity)
        ]
        probe_pairs = rng.integers(0, size.n_nodes, size=(PROBE_PAIRS, 2))

        # requests [k * swap_every, (k + 1) * swap_every - outstanding) of the
        # timed part are submitted after swap k returned and answered before
        # swap k + 1 starts, so artifact k % 2 must have answered them
        settled = np.flatnonzero(
            (self.kinds[size.warmup :] == LINK)
            & (np.arange(size.requests) % size.swap_every < size.swap_every - size.outstanding)
        )
        checked = rng.choice(settled, size=min(size.checked, settled.size), replace=False)

        self.paths = []
        self.expected: dict[int, np.ndarray] = {}
        for which in (0, 1):
            state = ModelState(
                pi=sample_mixed_membership(size.n_nodes, size.k, 0.05, rng, concentration=2.0),
                phi_sum=np.ones(size.n_nodes),
                theta=rng.gamma(2.0, 1.0, size=(size.k, 2)) + 0.1,
            )
            artifact = build_artifact(state, config, iteration=which)
            self.paths.append(save_artifact(workdir / f"model_{which}", artifact))
            host_factor()  # the host between the phases of set-up (run.py)
            score = partial(
                reference_link_probability, artifact.pi, artifact.beta, config.delta
            )
            for r in checked[(checked // size.swap_every) % 2 == which]:
                self.expected[int(r)] = score(self.pairs[size.warmup + r])
            if which == 0:
                self.expected_probe = score(probe_pairs)

        # The watchdog fences a worker that holds one batch for 5 s by default:
        # on a shared host a stall of the whole VM does that (a 7 s SIGSTOP
        # mid-run failed 4 requests), and no operation of this workload may
        # fail. Fault handling is the chaos drills' subject, not this one's.
        self.server = ModelServer(
            load_artifact(self.paths[0]),
            n_workers=1,
            cache_size=size.cache_size,
            stall_timeout_s=RESULT_TIMEOUT_S,
        )
        self.sent_at = np.zeros(total)
        self.done_at = np.zeros(total)
        self.results: dict[int, np.ndarray] = {}
        self.pending: deque = deque()
        self.failed = 0
        self.block_start: Optional[float] = None
        self.block_s: list[float] = []  # wall time of each timed block
        self.factors: list[float] = []  # host factor read after each
        self.tracer: Optional[Tracer] = None
        self.probe = self.server.link_probability(probe_pairs).result(timeout=RESULT_TIMEOUT_S)
        self._drive(0, size.warmup)

    def close(self) -> None:
        self.server.close()

    # -- the closed loop -----------------------------------------------------------

    def _stamp(self, i: int, _future) -> None:
        self.done_at[i] = time.perf_counter()

    def _submit(self, i: int) -> None:
        self.sent_at[i] = time.perf_counter()
        kind = self.kinds[i]
        if kind == LINK:
            future = self.server.link_probability(self.pairs[i])
        elif kind == MEMBERSHIP:
            future = self.server.membership(int(self.nodes[i]))
        else:
            future = self.server.recommend_edges(int(self.nodes[i]), self.size.top_n)
        future.add_done_callback(partial(self._stamp, i))
        self.pending.append((i, future))

    def _reap(self) -> None:
        i, future = self.pending.popleft()
        r = i - self.size.warmup
        try:
            answer = future.result(timeout=RESULT_TIMEOUT_S)
        except Exception:  # noqa: BLE001 - any failed, shed or timed-out request counts
            self.failed += 1
        else:
            if r in self.expected:
                self.results[r] = answer

    def _end_block(self) -> None:
        """Let the requests in flight finish, close the running block and
        read the host while the server has nothing to do."""
        while self.pending:
            self._reap()
        if self.block_start is not None:
            self.block_s.append(time.perf_counter() - self.block_start)
            self.factors.append(host_factor())
        if self.tracer is not None:  # record every second block
            self.tracer.enabled = len(self.block_s) % 2 == 1
        self.block_start = time.perf_counter()

    def _drive(self, first: int, last: int) -> None:
        size = self.size
        for i in range(first, last):
            r = i - size.warmup
            if r > 0 and r % size.swap_every == 0:
                # hot-swap under load: up to ``outstanding`` requests are in flight
                self.server.publish_path(self.paths[(r // size.swap_every) % 2])
            if r >= 0 and r % size.block == 0:
                self._end_block()
            while len(self.pending) >= size.outstanding:
                self._reap()
            try:
                self._submit(i)
            except Exception:  # noqa: BLE001 - overload and shed are failed requests
                self.failed += 1
        while self.pending:
            self._reap()

    # -- the timed part -------------------------------------------------------------

    def measure(self, tracer: Optional[Tracer]) -> Outcome:
        size, server = self.size, self.server
        self.tracer = tracer
        if tracer is not None:
            tracer.wrap(
                QueryEngine, "link_probability", "serve.engine.link_probability", thread_ops=True
            )
            tracer.wrap(
                QueryEngine,
                "recommend_edges_batch",
                "serve.engine.recommend_edges_batch",
                after=lambda t, args, _kw, _res: t.add(
                    "recommend.pairs", len(args[1]) * (args[0].artifact.n_nodes - 1)
                ),
                thread_ops=True,
            )
            tracer.wrap(server, "publish_path", "serve.server.publish_path")
        try:
            self._drive(size.warmup, size.warmup + size.requests)
            self._end_block()
            stats = server.stats()
            generation = server.generation
        finally:
            if tracer is not None:
                tracer.enabled = False
                tracer.restore()
            self.close()

        n_swaps = (size.requests - 1) // size.swap_every
        factors = np.array(self.factors)
        block_s = np.array(self.block_s) / factors
        # Requests per second over all (untraced) blocks together, not the
        # median block: block rates differ by phase (the first block and the
        # blocks after a swap regrow the workspace and refill the cache), and
        # the median of such blocks was the noisier number.
        plain_s = block_s if tracer is None else block_s[0::2]
        rate = size.block * len(plain_s) / float(plain_s.sum())
        raw_ms = 1e3 * (self.done_at - self.sent_at)[size.warmup :]
        latency_ms = raw_ms / np.repeat(factors, size.block)
        timed_kinds = self.kinds[size.warmup :]
        link_ms = latency_ms[timed_kinds == LINK]
        recommend_ms = latency_ms[timed_kinds == RECOMMEND]
        results, expected, probe = self.results, self.expected, self.probe
        worst = max(
            (float(np.abs(results[r] - expected[r]).max()) for r in results),
            default=float("inf"),
        )
        entropy = -(probe * np.log(probe) + (1.0 - probe) * np.log1p(-probe))
        layers: dict[str, float] = {}
        if tracer is not None:
            # per-layer times are as the clock read them, so is their share
            layers = _layers(tracer, stats, float(np.sum(self.block_s[1::2])))
            traced_s = block_s[1::2]
            layers["trace.overhead_ratio"] = (size.block * len(traced_s) / traced_s.sum()) / rate
        return Outcome(
            native={
                "requests_per_s": rate,
                "link_p99_ms": float(np.percentile(link_ms, 99)),
                "recommend_p50_ms": float(np.median(recommend_ms)),
                # not a held-out set: the served model's perplexity under its own
                # predictions on the probe pairs (moves only if scoring changes)
                "heldout_perplexity": float(np.exp(entropy.mean())),
            },
            ops_per_s=rate,
            attempted=size.requests,
            failed=self.failed,
            checks={
                "answers_match_reference": len(results) == len(expected) and worst <= 1e-12,
                "probe_matches_reference": bool(
                    np.abs(probe - self.expected_probe).max() <= 1e-12
                ),
                "no_failed_requests": self.failed == 0,
                "generation_per_swap": generation == n_swaps,
                "all_completed": bool((self.done_at[size.warmup :] > 0).all()),
            },
            layers=layers,
            detail={
                "state_digest": digest(*(results[r] for r in sorted(results)), probe),
                "block_requests_per_s": [float(x) for x in size.block / block_s],
                "host_factors": self.factors,
                "raw_requests_per_s": size.requests / float(np.sum(self.block_s)),
                "raw_link_p99_ms": float(np.percentile(raw_ms[timed_kinds == LINK], 99)),
                "raw_recommend_p50_ms": float(np.median(raw_ms[timed_kinds == RECOMMEND])),
                "link_ms": {**summary(link_ms), "p99": float(np.percentile(link_ms, 99))},
                "recommend_ms": summary(recommend_ms),
                "membership_ms": summary(latency_ms[timed_kinds == MEMBERSHIP]),
                "n_swaps": n_swaps,
                "worst_reference_error": worst,
                "cache": stats["cache"],
                "batching": stats["batching"],
            },
        )


def _layers(tracer: Tracer, stats: dict, traced_wall_s: float) -> dict[str, float]:
    totals = tracer.totals()
    link, recommend, publish = (
        "serve.engine.link_probability",
        "serve.engine.recommend_edges_batch",
        "serve.server.publish_path",
    )
    recommend_s = totals.total[recommend]
    return {
        "serve.server.publish_path.ms": totals.ms(publish, totals.count[publish]),
        "serve.engine.link_probability.ms_per_batch": totals.ms(link, totals.count[link]),
        "serve.engine.recommend_edges_batch.ms_per_batch": totals.ms(
            recommend, totals.count[recommend]
        ),
        "serve.engine.recommend.candidate_pairs_per_s": (
            tracer.counts["recommend.pairs"] / recommend_s if recommend_s else 0.0
        ),
        "serve.server.mean_batch_size": stats["batching"]["mean_batch_size"],
        "serve.server.cache_hit_ratio": stats["cache"]["hit_rate"],
        "serve.server.engine_busy_share": (totals.total[link] + recommend_s) / traced_wall_s,
    }
