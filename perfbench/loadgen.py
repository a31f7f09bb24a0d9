"""Open-loop load generator for the ``service-open`` workload.

One process, two threads: a sender that POSTs each request at its due
time whatever the backlog (an open loop), and a poller that GETs every
outstanding request's result URL until it answers 200.  A request's
latency runs from its *due* time to receipt of its result bytes, so a
stalled sender still charges the stall to the requests it delayed;
how late the sender ran is reported separately as a validity check.

Only the standard library is used: the generator must not share code
or interpreter time with the service it measures.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import random
import threading
import time
from dataclasses import dataclass, field

ALL_METHODS = ("ours (a)", "ours (b)", "direct translation", "Hungarian")

#: Small per-request knobs (the repository load generator's defaults).
KNOBS = {"foi_target_points": 200, "lloyd_grid_target": 600, "resolution": 12}

#: Shares of request kinds: duplicates, method-(a)-only uniques and
#: all-four-method uniques.  Every schedule holds these shares exactly
#: (only the order is drawn), so runs with different seeds send the same
#: mix of cheap, dear and deduplicated requests; and the cheap kinds stay
#: near 40%, so the median lands inside the all-four latencies rather
#: than on the edge between two clusters, where it would jump.
SHARES = (("dup", 0.3), ("a", 0.1))

#: Seconds between result polls of one outstanding request: the
#: repository client's own default (``ServiceClient.wait``), so the
#: service sees the poll load its real clients put on it.
POLL_S = 0.05


def plan_body(scenario: int, separation: float, methods) -> dict:
    return {"scenario_ids": [scenario], "separation_factor": separation,
            "methods": list(methods), **KNOBS}


def warmup_bodies() -> list[dict]:
    """One request per scenario shape; separation 20 is never drawn below."""
    return [plan_body(s, 20.0, ALL_METHODS) for s in (1, 2)]


def build_schedule(seed: int, rate_hz: float, seconds: float) -> list[tuple[float, dict]]:
    """``(due offset, body)`` pairs at a fixed rate over ``seconds``.

    Uniques draw hole-free scenario 1 or 2 and a separation in
    [10, 19.5]; the kinds follow :data:`SHARES` (the rest use all four
    methods), and a duplicate repeats a uniformly drawn earlier unique.
    """
    rng = random.Random(f"service-open:{seed}")
    count = max(1, round(rate_hz * seconds))
    kinds = [kind for kind, share in SHARES for _ in range(round(count * share))]
    kinds += ["all"] * (count - len(kinds))
    rng.shuffle(kinds)
    if kinds[0] == "dup":  # nothing to duplicate yet
        first = kinds.index("all")
        kinds[0], kinds[first] = kinds[first], kinds[0]
    uniques: list[dict] = []
    schedule = []
    for i, kind in enumerate(kinds):
        if kind == "dup":
            body = rng.choice(uniques)
        else:
            body = plan_body(rng.choice((1, 2)), round(rng.uniform(10.0, 19.5), 3),
                             ALL_METHODS if kind == "all" else ALL_METHODS[:1])
            uniques.append(body)
        schedule.append((i / rate_hz, body))
    return schedule


def request(port: int, method: str, path: str, body: dict | None = None,
            timeout: float = 60.0) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        payload = None if body is None else json.dumps(body).encode()
        conn.request(method, path, body=payload,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def wait_healthy(port: int, deadline: float) -> None:
    while True:
        try:
            if request(port, "GET", "/healthz", timeout=5.0)[0] == 200:
                return
        except OSError:
            pass
        if time.monotonic() > deadline:
            raise TimeoutError("service never answered /healthz")
        time.sleep(0.01)


def solve(port: int, body: dict, timeout: float = 120.0) -> bytes:
    """Submit one request and block until its result bytes arrive."""
    status, data = request(port, "POST", "/v1/plan", body)
    if status != 202:
        raise RuntimeError(f"POST /v1/plan answered {status}: {data[:200]!r}")
    job_id = json.loads(data)["job_id"]
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        status, data = request(port, "GET", f"/v1/jobs/{job_id}/result")
        if status == 200:
            return data
        if status != 202:
            raise RuntimeError(f"job {job_id} answered {status}: {data[:200]!r}")
        time.sleep(POLL_S)
    raise TimeoutError(f"job {job_id} unfinished after {timeout}s")


@dataclass
class Outcome:
    """What happened to one scheduled request."""

    due: float
    body: dict
    sent: float | None = None
    admit_s: float | None = None
    job_id: str | None = None
    deduplicated: bool = False
    received: float | None = None
    fetch_s: float | None = None
    polls: int = 0
    digest: str | None = None
    nbytes: int = 0
    error: str | None = None

    @property
    def latency_s(self) -> float | None:
        return None if self.received is None else self.received - self.due


def busy_intervals(outcomes) -> list[tuple[float, float]]:
    """The union of every answered request's [sent, received] interval,
    as disjoint intervals in time order: the spans during which at least
    one request was outstanding.  The idle gaps of the open loop are left
    out, so requests per busy second follow the service's speed rather
    than the offered rate."""
    spans = sorted((o.sent, o.received) for o in outcomes
                   if o.sent is not None and o.received is not None)
    merged: list[list[float]] = []
    for start, stop in spans:
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], stop)
        else:
            merged.append([start, stop])
    return [(a, b) for a, b in merged]


def busy_seconds(outcomes) -> float:
    """Seconds during which at least one request was outstanding."""
    return sum(b - a for a, b in busy_intervals(outcomes))


@dataclass
class OpenLoop:
    """Drive one schedule against a service at ``port``."""

    port: int
    schedule: list[tuple[float, dict]]
    timeout_s: float = 120.0
    outcomes: list[Outcome] = field(default_factory=list)

    def run(self) -> list[Outcome]:
        clock, sleep = time.perf_counter, time.sleep
        t0 = clock() + 0.05
        self.outcomes = [Outcome(due=t0 + off, body=body) for off, body in self.schedule]
        admitted: list[Outcome] = []
        lock = threading.Lock()
        done_sending = threading.Event()

        def sender() -> None:
            try:
                for out in self.outcomes:
                    delay = out.due - clock()
                    if delay > 0:
                        sleep(delay)
                    out.sent = clock()
                    try:
                        status, data = request(self.port, "POST", "/v1/plan", out.body)
                    except OSError as exc:
                        out.error = f"POST failed: {exc}"
                        continue
                    out.admit_s = clock() - out.sent
                    if status != 202:
                        out.error = f"refused: HTTP {status}"
                        continue
                    doc = json.loads(data)
                    out.job_id, out.deduplicated = doc["job_id"], bool(doc["deduplicated"])
                    with lock:
                        admitted.append(out)
            finally:
                done_sending.set()

        def poller() -> None:
            pending: list[Outcome] = []
            deadline = None
            while True:
                with lock:
                    pending.extend(admitted)
                    admitted.clear()
                if not pending:
                    if done_sending.is_set():
                        with lock:
                            if not admitted:
                                return
                    sleep(POLL_S)
                    continue
                if deadline is None and done_sending.is_set():
                    deadline = clock() + self.timeout_s
                still = []
                for out in pending:
                    self._poll(out, clock)
                    if out.received is None and out.error is None:
                        still.append(out)
                pending = still
                if deadline is not None and clock() > deadline:
                    for out in pending:
                        out.error = "timed out waiting for the result"
                    return
                if pending:
                    sleep(POLL_S)

        threads = [threading.Thread(target=sender), threading.Thread(target=poller)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return self.outcomes

    def _poll(self, out: Outcome, clock) -> None:
        start = clock()
        try:
            status, data = request(self.port, "GET", f"/v1/jobs/{out.job_id}/result")
        except OSError as exc:
            out.error = f"GET result failed: {exc}"
            return
        out.polls += 1
        if status == 200:
            out.received = clock()
            out.fetch_s = out.received - start
            out.digest = hashlib.sha256(data).hexdigest()
            out.nbytes = len(data)
        elif status != 202:
            out.error = f"job answered HTTP {status}"
