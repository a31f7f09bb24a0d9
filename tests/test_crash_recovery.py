"""End-to-end crash recovery: the acceptance contract of the journal.

Three layers, slowest last:

- in-process service restarts on one journal directory (acknowledged
  plan results survive, provenance is reported, TTL-expired results
  answer ``410`` with a typed client error);
- a drain-interrupted mission resumes across a service restart with a
  byte-identical final document;
- real ``python -m repro serve`` subprocesses killed with ``SIGKILL``
  mid-mission (and drained with ``SIGTERM``) via the
  :mod:`repro.experiments.crashrec` harness - zero lost acknowledged
  jobs, byte-identical mission documents.
"""

import signal
import time

import pytest

from repro.errors import ServiceError
from repro.experiments import crashrec
from repro.experiments.crashrec import (
    CrashRecConfig,
    crashrec_passed,
    expected_mission_bytes,
    run_crashrec,
)
from repro.io import dumps_canonical
from repro.missions import MissionConfig, MissionSpec, run_mission
from repro.service import JobExpiredError, PlanningService, ServiceClient

FAST = MissionConfig(
    robot_count=16,
    foi_target_points=100,
    grid_target=300,
    lloyd_max_iterations=6,
    resolution=4,
)


def echo_runner(request):
    return {"echo": request["scenario_ids"], "sep": request["separation_factor"]}


def service_on(journal_dir, **kwargs):
    kwargs.setdefault("port", 0)
    kwargs.setdefault("dispatchers", 1)
    kwargs.setdefault("journal_fsync", False)
    svc = PlanningService(journal_dir=journal_dir, **kwargs)
    svc.events_poll_s = 0.01
    return svc


class TestServiceRestart:
    def test_acked_results_survive_restart(self, tmp_path):
        with service_on(tmp_path, runner=echo_runner) as svc:
            client = ServiceClient(port=svc.port, retries=3)
            submitted = client.submit([1], separation_factor=12.0)
            job_id = submitted["job_id"]
            client.wait(job_id, timeout=30.0)
            first_bytes = client.result_bytes(job_id)

        with service_on(tmp_path, runner=echo_runner) as svc:
            assert svc.recovery["jobs_restored"] == 1
            assert svc.recovery["jobs_requeued"] == 0
            client = ServiceClient(port=svc.port, retries=3)
            status = client.status(job_id)
            assert status["state"] == "done"
            assert status["provenance"] == "recovered"
            assert client.result_bytes(job_id) == first_bytes

    def test_resubmission_dedups_onto_recovered_job(self, tmp_path):
        with service_on(tmp_path, runner=echo_runner) as svc:
            client = ServiceClient(port=svc.port, retries=3)
            submitted = client.submit([2], separation_factor=21.0)
            job_id = submitted["job_id"]
            client.wait(job_id, timeout=30.0)

        with service_on(tmp_path, runner=echo_runner) as svc:
            client = ServiceClient(port=svc.port, retries=3)
            # Content-address idempotency across processes: the same
            # request dedups onto the recovered done job, no re-run.
            again = client.submit([2], separation_factor=21.0)
            assert again["job_id"] == job_id
            assert again["deduplicated"]
            assert client.status(job_id)["state"] == "done"

    def test_healthz_reports_journal_and_recovery(self, tmp_path):
        with service_on(tmp_path, runner=echo_runner) as svc:
            client = ServiceClient(port=svc.port, retries=3)
            doc = client.healthz()
            assert doc["journal"]["directory"] == str(tmp_path)
            assert doc["journal"]["fsync"] is False
            assert doc["recovery"]["jobs_restored"] == 0

    def test_expired_result_is_typed_410(self, tmp_path):
        with service_on(tmp_path, runner=echo_runner, ttl_s=0.05) as svc:
            client = ServiceClient(port=svc.port, retries=3)
            submitted = client.submit([1], separation_factor=31.0)
            job_id = submitted["job_id"]
            client.wait(job_id, timeout=30.0)
            time.sleep(0.1)
            for shard in svc.shards:
                shard.queue.evict_expired()
            with pytest.raises(JobExpiredError) as exc:
                client.status(job_id)
            assert exc.value.evicted_at is not None
            with pytest.raises(JobExpiredError):
                client.result(job_id)
            # An id the service never saw stays a plain 404.
            with pytest.raises(ServiceError) as plain:
                client.status("0" * 64)
            assert not isinstance(plain.value, JobExpiredError)

    def test_eviction_survives_restart(self, tmp_path):
        with service_on(tmp_path, runner=echo_runner, ttl_s=0.05) as svc:
            client = ServiceClient(port=svc.port, retries=3)
            submitted = client.submit([1], separation_factor=44.0)
            job_id = submitted["job_id"]
            client.wait(job_id, timeout=30.0)
            time.sleep(0.1)
            for shard in svc.shards:
                shard.queue.evict_expired()

        with service_on(tmp_path, runner=echo_runner) as svc:
            client = ServiceClient(port=svc.port, retries=3)
            with pytest.raises(JobExpiredError):
                client.status(job_id)


class TestMissionResumeAcrossRestart:
    SPEC = MissionSpec(family="corridor", seed=0, epochs=4, motion="drift")

    def test_drain_interrupted_mission_resumes_byte_identical(self, tmp_path):
        baseline = dumps_canonical(run_mission(self.SPEC, FAST))
        with service_on(tmp_path) as svc:
            client = ServiceClient(port=svc.port, timeout=120.0, retries=3)
            submitted = client.submit_mission(self.SPEC, FAST)
            job_id = submitted["job_id"]
            # Wait for the first durable epoch, then drain: the runner
            # must checkpoint-and-release at the next epoch boundary.
            for event in client.iter_events(job_id, timeout=60.0):
                if event.get("kind") == "checkpoint":
                    break
        # __exit__ ran stop(): drain interrupts the mission.  Unless the
        # mission managed to finish first, the job is parked for resume.

        with service_on(tmp_path) as svc:
            assert svc.recovery["jobs_restored"] == 1
            client = ServiceClient(port=svc.port, timeout=120.0, retries=3)
            final = client.wait(job_id, timeout=120.0)
            assert final["state"] == "done"
            assert final["provenance"] in ("recovered", "retried")
            assert client.result_bytes(job_id) == baseline


class FakeServer:
    """Stands in for a ``repro serve`` child: records how it was stopped."""

    port = 1
    recovery_banner = ""

    def __init__(self):
        self.returncode = None
        self.signals = []

    def poll(self):
        return self.returncode

    def kill(self):
        self.returncode = -9

    def send_signal(self, sig):
        self.signals.append(sig)
        self.returncode = 0

    def wait(self, timeout=None):
        return self.returncode


class HealthzFailsClient:
    """Loads and streams fine; the restarted server's ``healthz`` fails."""

    def __init__(self, port, timeout):
        pass

    def submit_request(self, doc):
        return {"job_id": "plan-0"}

    def wait(self, job_id, timeout=None):
        return {"state": "done"}

    def result_bytes(self, job_id):
        return b"{}"

    def submit_mission(self, spec, config):
        return {"job_id": "mission-0"}

    def iter_events(self, job_id, timeout=None):
        yield {"kind": "epoch", "epoch": 1}

    def healthz(self):
        raise ServiceError("healthz failed")


class TestCrashrecStopsServersOnError:
    """A harness step that raises must not leave a server running."""

    @pytest.fixture
    def servers(self, monkeypatch):
        booted = []

        def fake_boot(serve_args):
            booted.append(FakeServer())
            return booted[-1]

        monkeypatch.setattr(crashrec, "boot_server", fake_boot)
        return booted

    def test_first_server_killed_when_loading_fails(self, servers, monkeypatch, tmp_path):
        def refuse(port, timeout):
            raise ServiceError("connection refused")

        monkeypatch.setattr(crashrec, "ServiceClient", refuse)
        with pytest.raises(ServiceError, match="connection refused"):
            run_crashrec(TestSubprocessKill9.CONFIG, str(tmp_path), baseline=b"{}")
        assert len(servers) == 1
        assert servers[0].poll() == -9

    def test_restarted_server_shut_down_when_checks_fail(self, servers, monkeypatch, tmp_path):
        monkeypatch.setattr(crashrec, "ServiceClient", HealthzFailsClient)
        with pytest.raises(ServiceError, match="healthz failed"):
            run_crashrec(TestSubprocessKill9.CONFIG, str(tmp_path), baseline=b"{}")
        assert len(servers) == 2
        assert servers[0].poll() == -9  # the seeded SIGKILL
        assert servers[1].signals == [signal.SIGINT]


class TestSubprocessKill9:
    """The headline acceptance test: kill -9, restart, nothing lost."""

    CONFIG = CrashRecConfig(
        seed=0,
        epochs=3,
        kill_epoch=1,
        plan_jobs=1,
        robot_count=16,
        foi_target_points=100,
        grid_target=300,
        lloyd_max_iterations=8,
        resolution=4,
    )

    def test_sigkill_loses_nothing(self, tmp_path):
        summary = run_crashrec(
            self.CONFIG,
            tmp_path / "journal",
            sig="SIGKILL",
            baseline=expected_mission_bytes(self.CONFIG),
        )
        canonical = summary["canonical"]
        assert crashrec_passed(summary), summary
        assert summary["timing"]["crash_exit_code"] == -9
        assert canonical["zero_lost_acked"], canonical["lost_acked"]
        assert canonical["mission_byte_identical"]
        assert canonical["mission_provenance"] == "retried"
        assert canonical["epochs_streamed_before_crash"] >= self.CONFIG.kill_epoch

    def test_sigterm_drains_checkpoints_and_exits_zero(self, tmp_path):
        config = CrashRecConfig(
            seed=0,
            epochs=5,
            kill_epoch=1,
            plan_jobs=1,
            robot_count=16,
            foi_target_points=100,
            grid_target=300,
            lloyd_max_iterations=8,
            resolution=4,
        )
        summary = run_crashrec(
            config,
            tmp_path / "journal",
            sig="SIGTERM",
            baseline=expected_mission_bytes(config),
        )
        canonical = summary["canonical"]
        timing = summary["timing"]
        assert crashrec_passed(summary), summary
        # Graceful drain: epoch finished + checkpointed, drain announced
        # on the SSE stream, clean exit.
        assert timing["crash_exit_code"] == 0
        assert timing["drain_announced"]
        assert timing["interrupted_event"]
        assert canonical["zero_lost_acked"], canonical["lost_acked"]
        assert canonical["mission_byte_identical"]
        assert canonical["resumed_from_epoch"] >= 1
