"""The traffic mixes and the requests they send.

All inputs come from the workload seed: tenant families, input sizes,
pinned clusters and arrival times. The service only sees the generated
requests. Each workload measures one traffic mix for the window:

* ``ingest``: two closed-loop clients send 50-run ``RunBatchRequest``s
  back to back, in rounds that visit every ingest tenant once.
* ``tune``: ``TuneRequest``s arrive open-loop in whole rounds, one
  round per ``TUNE_ROUND_PERIOD_S``, each request at a random time inside
  its own equal slot.

Every end-to-end metric is reported on every workload, so after the
window each workload runs a short probe of the request kind its mix
lacks, on an otherwise idle stack: ``TUNE_PROBE_ROUNDS``
rounds of tune requests sent one at a time, or ``INGEST_PROBE_ROUNDS``
rounds of ingest batches from the two-client closed loop. A probe on an
idle stack is steady from run to run; a trickle mixed into the window
was not, because whether it queued behind the main traffic decided its
percentiles.

Open-loop requests are timed from their due time, so a stalled
generator shows up as latency; the generator's lateness is recorded too.
"""

from __future__ import annotations

import asyncio
import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.serviced import RunBatchRequest, TuneRequest, workload_fingerprint
from repro.workloads.suite import get_workload

from . import stack as st

WORKLOADS = ("ingest", "tune")

RUNS_PER_BATCH = 50
INGEST_CLIENTS = 2
#: one round of tune requests (one per (family, input size) pair, 20 in
#: all) arrives every this many seconds in ``tune``: 3.33 requests/s,
#: about 40 % of the 8.1-8.7 requests/s the 2-shard stack completed when
#: saturated with these requests (2-core x86-64 box). The window holds
#: whole rounds, rounded up, so a 30 s window gets 5 rounds, 100 requests:
#: enough for 10 samples beyond the tune p90. At half capacity, queueing
#: moved the tune p90 by a third or more between runs of the same code.
TUNE_ROUND_PERIOD_S = 6.0
#: rounds of tune requests the ``ingest`` probe sends: 100 requests, so
#: the tune p90 there has 10 samples beyond it too
TUNE_PROBE_ROUNDS = 5
INGEST_PROBE_ROUNDS = 40
#: DISC evaluations per tune request (the default BayesOptTuner)
TUNE_DISC_BUDGET = 3
#: cloud-stage evaluations of an unpinned tune request; equal to the
#: cloud optimizer's initial design, so its stop rule cannot end the
#: stage early and the evaluation count is exact
CLOUD_BUDGET = 6
#: one tune tenant in this many arrives without a pinned cluster
UNPINNED_EVERY = 4
#: a tune request counts towards ``tune_ok_share`` only when deployed
#: within this many seconds of its due time
TUNE_LATENCY_LIMIT_S = 2.0
#: generator lateness beyond which a run is flagged as behind schedule
LATE_FLAG_S = 0.05


@dataclass
class Outcome:
    """What one request got, with its timing."""

    kind: str                       # "tune" | "runs"
    due: float                      # seconds since the window opened
    sent: float
    done: float
    accepted: bool = False
    reason: str | None = None
    failed: bool = False
    error: str | None = None
    runs: int = 0
    deployment: object = None
    pinned: bool = True

    @property
    def latency_s(self) -> float:
        return self.done - self.due


@dataclass
class RunLog:
    """Every request of one measured window."""

    workload: str
    seconds: float
    outcomes: list[Outcome] = field(default_factory=list)
    #: how late the open-loop generator sent each request, in seconds
    lateness: list[float] = field(default_factory=list)
    wall_s: float = 0.0
    fingerprints_seen: int = 0
    fingerprints_repeated: int = 0


def tune_combos() -> list[tuple[str, float]]:
    """The (family, input size) pairs one round of tune requests visits."""
    return [(f, mb) for f in st.families() for mb in st.INPUT_SIZES_MB]


def tune_request_stream(rng: np.random.Generator):
    """Endless tune requests in rounds with a fixed mix.

    Each round visits every (family, input size) pair once, leaves a
    rotating ``1 / UNPINNED_EVERY`` of them unpinned and alternates the
    pinned clusters; the seed orders each round. The mix of a run made
    of whole rounds therefore does not depend on the seed.
    """
    combos = tune_combos()
    i = 0
    for r in itertools.count():
        for j in rng.permutation(len(combos)):
            family, input_mb = combos[j]
            unpinned = (j + r) % UNPINNED_EVERY == 0
            yield TuneRequest(
                tenant=f"tenant-{i:05d}", workload=get_workload(family),
                input_mb=input_mb, slo=st.SLO,
                cluster=None if unpinned else st.cluster_of(j + r),
                cloud_budget=CLOUD_BUDGET, disc_budget=TUNE_DISC_BUDGET,
                use_transfer=True,
            )
            i += 1


def tune_rounds(seconds: float) -> int:
    """Whole rounds of tune requests in a window of ``seconds``."""
    return max(1, math.ceil(seconds / TUNE_ROUND_PERIOD_S - 1e-9))


def arrival_schedule(rng: np.random.Generator, seconds: float) -> list[float]:
    """Open-loop arrivals of ``tune_rounds(seconds)`` rounds: one per slot.

    The window is cut into one equal slot per request, and each arrival
    falls uniformly inside its own slot. Poisson arrivals were tried
    first: their clumps decided the tune p90, which then moved by 2x
    between runs of the same code.
    """
    n = tune_rounds(seconds) * len(tune_combos())
    slot = seconds / n
    return [(i + float(u)) * slot for i, u in enumerate(rng.random(n))]


class Driver:
    """Sends one workload's requests at a stack and records outcomes."""

    def __init__(self, stack: st.Stack, workload: str, seed: int,
                 seconds: float):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.stack = stack
        self.workload = workload
        self.seconds = seconds
        self.rng = np.random.default_rng([seed, 2])
        self.log = RunLog(workload=workload, seconds=seconds)
        self._t0 = 0.0
        self._seen: set[str] = {
            workload_fingerprint(d.workload, d.input_mb)
            for d in stack.deployments
        }
        self._ingest_round: list = []
        self._tunes = tune_request_stream(
            np.random.default_rng(self.rng.integers(2**63)),
        )

    def _now(self) -> float:
        return time.perf_counter() - self._t0

    async def _send(self, request, due: float) -> None:
        kind = "tune" if isinstance(request, TuneRequest) else "runs"
        pinned = getattr(request, "cluster", None) is not None
        if kind == "tune":
            self.stack.budget(request.tenant)
            fp = workload_fingerprint(request.workload, request.input_mb)
            self.log.fingerprints_seen += 1
            self.log.fingerprints_repeated += fp in self._seen
            self._seen.add(fp)
        sent = self._now()
        out = Outcome(kind=kind, due=due, sent=sent, done=sent, pinned=pinned)
        self.log.outcomes.append(out)
        try:
            result = await self.stack.frontend.submit(request)
        except Exception as exc:  # a failed request is counted, not fatal
            out.failed = True
            out.error = f"{type(exc).__name__}: {exc}"
        else:
            out.accepted = result.accepted
            out.reason = result.reason
            out.runs = result.runs_submitted
            out.deployment = result.deployment
        out.done = self._now()

    def _ingest_request(self) -> RunBatchRequest:
        """The next batch: each round visits every ingest tenant once, in
        a seeded order, so which tenants the two closed-loop clients run
        side by side changes within a run instead of staying fixed."""
        if not self._ingest_round:
            self._ingest_round = [
                self.stack.deployments[int(i)]
                for i in self.rng.permutation(len(self.stack.deployments))
            ]
        d = self._ingest_round.pop()
        return RunBatchRequest(tenant=d.tenant, deployment=d,
                               input_mb=d.input_mb, n_runs=RUNS_PER_BATCH)

    async def _ingest_client(self, more) -> None:
        """Send ingest batches back to back while ``more()`` is true."""
        while more():
            await self._send(self._ingest_request(), due=self._now())

    async def _open_loop(self, schedule: list[float], make_request) -> None:
        tasks = []
        for due in schedule:
            delay = due - self._now()
            if delay > 0:
                await asyncio.sleep(delay)
            self.log.lateness.append(max(0.0, self._now() - due))
            tasks.append(asyncio.ensure_future(
                self._send(make_request(), due=due)
            ))
        await asyncio.gather(*tasks)

    async def window(self, seconds: float) -> list[Outcome]:
        """The workload's traffic mix for ``seconds``; returns its outcomes."""
        first = len(self.log.outcomes)
        self._t0 = time.perf_counter()
        if self.workload == "ingest":
            def in_window() -> bool:
                return self._now() < seconds
            await asyncio.gather(*[
                self._ingest_client(in_window) for _ in range(INGEST_CLIENTS)
            ])
        else:
            await self._open_loop(arrival_schedule(self.rng, seconds),
                                  lambda: next(self._tunes))
        return self.log.outcomes[first:]

    async def probe(self) -> None:
        """The request kind the window's mix lacks, on the idle stack."""
        if self.workload == "ingest":
            for _ in range(TUNE_PROBE_ROUNDS * len(tune_combos())):
                await self._send(next(self._tunes), due=self._now())
        else:
            left = iter(range(INGEST_PROBE_ROUNDS * len(self.stack.deployments)))
            await asyncio.gather(*[
                self._ingest_client(lambda: next(left, None) is not None)
                for _ in range(INGEST_CLIENTS)
            ])

    async def run(self) -> RunLog:
        """Drive the window, then the probe."""
        await self.window(self.seconds)
        await self.probe()
        self.log.wall_s = self._now()
        return self.log
