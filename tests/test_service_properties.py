"""Hypothesis properties of the coordinator/worker lease protocol.

Three layers are exercised, all against real on-disk state:

* **Lease interleavings** — arbitrary op sequences (claim, heartbeat,
  clock advance, reap, complete, fail, silent worker death) across N
  simulated workers drive a real :class:`~repro.service.lease.LeaseStore`
  through its injectable clock.  Invariants: a cell is never lost (it is
  always claimable again after at most one TTL), never characterized
  twice (the exclusive CAS commit admits exactly one artifact), a live
  non-expired lease is never stolen, and the lifetime attempt index —
  recovered from the telemetry shards alone — is never reused.
* **Resume accounting** — per-cell scripts of crash / die-after-commit
  outcomes replay coordinator sessions (killed and resumed at arbitrary
  points) over a real :class:`~repro.resilience.ledger.RunLedger`.
  Invariants: every cell's counters land in ``metrics_total()`` exactly
  once no matter how many sessions it took, and no cell is collected
  twice.
* **Commit/claim edges** — deterministic checks of the exactly-once
  hardlink commit, of a corrupted CAS blob never being linked again, of
  claims being published whole, and of torn (unparseable) claim files
  being immediately reapable.
"""

import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.camodel import generate_ca_model
from repro.library import SOI28, build_cell
from repro.obs import store as obs_store
from repro.resilience.ledger import DONE, RunLedger
from repro.resilience.runner import canonical_model_dict, read_sidecar
from repro.service.lease import LeaseStore
from repro.service.worker import commit_artifact, next_attempt_index

# ----------------------------------------------------------------------
# Lease interleaving property
# ----------------------------------------------------------------------

CELLS = ("C0", "C1", "C2")
WORKERS = ("w0", "w1", "w2")
KEY = "k"
TTL = 5.0


class FakeClock:
    """Deterministic injectable time for :class:`LeaseStore`."""

    def __init__(self, start: float = 1_000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def _cell_data(name):
    return {"cell": name, "payload": "model-bytes"}


op_strategy = st.one_of(
    st.tuples(
        st.just("claim"),
        st.sampled_from(WORKERS),
        st.sampled_from(CELLS),
    ),
    st.tuples(st.just("heartbeat"), st.sampled_from(WORKERS)),
    st.tuples(st.just("complete"), st.sampled_from(WORKERS)),
    st.tuples(st.just("fail"), st.sampled_from(WORKERS)),
    st.tuples(st.just("die"), st.sampled_from(WORKERS)),
    st.tuples(st.just("advance"), st.sampled_from([1.0, 3.0, 6.0])),
    st.tuples(st.just("reap")),
)


class _World:
    """One simulated fleet following the real worker/coordinator protocol."""

    def __init__(self, run_dir: Path) -> None:
        self.run_dir = run_dir
        self.models_dir = run_dir / "models"
        self.models_dir.mkdir(parents=True)
        self.clock = FakeClock()
        self.leases = LeaseStore(run_dir, ttl=TTL, clock=self.clock)
        self.store = obs_store.ObsStore(run_dir)
        self.held = {}  # worker -> Lease it believes it holds
        self.commits = {name: 0 for name in CELLS}
        self.attempts_used = {name: set() for name in CELLS}

    def artifact(self, name: str) -> Path:
        return self.models_dir / f"{name}-{KEY}.json"

    def write_shard(self, name: str, attempt: int, outcome: str) -> None:
        obs_store.write_attempt_shard(
            self.store.attempt_shard_path(name, KEY, attempt),
            cell=name,
            key=KEY,
            attempt=attempt,
            outcome=outcome,
            pid=0,
            started=self.clock.now,
            seconds=0.0,
            counters={},
            spans=[],
            events=[],
            error=None if outcome == "ok" else outcome,
        )

    # -- ops, mirroring worker_loop / run_attempt / the coordinator ----
    def claim(self, worker: str, name: str) -> None:
        if worker in self.held:
            return  # one cell at a time, like worker_loop
        if self.artifact(name).exists():
            return  # committed; not claimable
        if self.leases.read(name) is not None:
            return  # visibly leased; workers never steal
        attempt = next_attempt_index(self.store.obs_dir, name, KEY, 0)
        lease = self.leases.claim(name, worker, attempt)
        if lease is None:
            return  # lost the exclusive-link race (impossible sequentially)
        # the shard-recovered index is never reused by a later attempt
        assert attempt not in self.attempts_used[name]
        self.attempts_used[name].add(attempt)
        # any previous believer on this cell has verifiably lost it
        for other, other_lease in list(self.held.items()):
            if other_lease.cell == name:
                assert not self.leases.heartbeat(other_lease)
                del self.held[other]
        self.held[worker] = lease

    def heartbeat(self, worker: str) -> None:
        lease = self.held.get(worker)
        if lease is None:
            return
        if not self.leases.heartbeat(lease):
            del self.held[worker]  # lost: discard before the commit point

    def complete(self, worker: str) -> None:
        lease = self.held.pop(worker, None)
        if lease is None:
            return
        if not self.leases.heartbeat(lease):
            return  # still_held() failed: discard, write nothing
        committed = commit_artifact(
            self.run_dir, self.artifact(lease.cell), _cell_data(lease.cell)
        )
        assert committed, "a held, heartbeat-fresh lease lost the commit"
        self.commits[lease.cell] += 1
        assert self.commits[lease.cell] == 1  # never characterized twice
        self.write_shard(lease.cell, lease.attempt, "ok")
        self.leases.release(lease)

    def fail(self, worker: str) -> None:
        lease = self.held.pop(worker, None)
        if lease is None:
            return
        if not self.leases.heartbeat(lease):
            return  # already written off by the reaper
        self.write_shard(lease.cell, lease.attempt, "exception")
        self.leases.release(lease)

    def die(self, worker: str) -> None:
        # silent SIGKILL: the lease file stays until the reaper takes it
        self.held.pop(worker, None)

    def advance(self, dt: float) -> None:
        self.clock.advance(dt)

    def reap(self) -> None:
        def before_unlink(name, record):
            attempt = int(record.get("attempt", -1))
            if attempt >= 0 and not self.store.has_attempt(
                name, KEY, attempt
            ):
                self.write_shard(name, attempt, "crash")

        self.leases.reap_expired(before_unlink=before_unlink)

    # -- invariants checked after every op ------------------------------
    def check(self) -> None:
        for worker, lease in self.held.items():
            if lease.expires > self.clock.now:
                # a live, non-expired lease is never reaped or stolen
                record = self.leases.read(lease.cell)
                assert record is not None
                assert record.get("owner") == worker
        for name in CELLS:
            assert self.commits[name] <= 1
            if self.commits[name]:
                assert json.loads(
                    self.artifact(name).read_text()
                ) == _cell_data(name)


@settings(max_examples=40, deadline=None)
@given(ops=st.lists(op_strategy, max_size=60))
def test_lease_interleavings_never_lose_or_double_characterize(ops):
    run_dir = Path(tempfile.mkdtemp(prefix="service-lease-prop-"))
    try:
        world = _World(run_dir)
        for op in ops:
            getattr(world, op[0])(*op[1:])
            world.check()
        # Drain: expire every straggler, reap once, and finish the job
        # with one surviving worker — no interleaving may have lost a
        # cell or burned its claimability.
        world.clock.advance(TTL + 1.0)
        world.reap()
        for name in CELLS:
            if world.artifact(name).exists():
                continue
            world.held.pop("finisher", None)
            world.claim("finisher", name)
            assert "finisher" in world.held, f"{name} is not claimable"
            world.complete("finisher")
        for name in CELLS:
            assert world.commits[name] == 1  # exactly once, never lost
            assert world.artifact(name).exists()
        # lifetime attempt indices are a gap-free unique sequence
        for name, used in world.attempts_used.items():
            assert used == set(range(len(used)))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


# ----------------------------------------------------------------------
# Resume accounting property
# ----------------------------------------------------------------------

OPTIONS = {"policy": "exhaustive", "delay_detection": True}

CRASH = "crash"
DIE_AFTER_COMMIT = "die-after-commit"

service_scripts = st.dictionaries(
    keys=st.sampled_from(["C0", "C1", "C2"]),
    values=st.lists(st.sampled_from([CRASH, DIE_AFTER_COMMIT]), max_size=2),
    min_size=1,
    max_size=3,
)


@pytest.fixture(scope="module")
def model_dict():
    cell = build_cell(SOI28, "NAND2", 1)
    model = generate_ca_model(cell, params=SOI28.electrical)
    return canonical_model_dict(model)


def _artifact_for(model_dict, name):
    data = dict(model_dict)
    data["cell"] = name
    return data


class _CoordinatorKilled(Exception):
    """The simulated coordinator died mid-session."""


def _commit(run_dir, ledger, name, model_dict):
    """A worker's commit: sidecar first, then the exclusive hardlink."""
    ledger.sidecar_path(name).write_text(
        json.dumps({"seconds": 1.0, "counters": {"work": 1.0}, "spans": []})
    )
    assert commit_artifact(
        run_dir, ledger.artifact_path(name), _artifact_for(model_dict, name)
    )


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(scripts=service_scripts)
def test_service_resume_never_double_counts_counters(scripts, model_dict):
    run_dir = Path(tempfile.mkdtemp(prefix="service-resume-prop-"))
    try:
        names = sorted(scripts)
        cells = [(name, f"key-{name}") for name in names]
        cursor = {name: 0 for name in names}
        collected_in = {}  # cell -> session index that merged its counters
        session_merges = []  # per-session merged counter sums
        sessions = 0
        bound = sum(len(s) for s in scripts.values()) + len(names) + 4
        while sessions <= bound:
            ledger = RunLedger.open(
                run_dir, OPTIONS, cells, resume=sessions > 0
            )
            ledger.recover()
            merged = {}
            session_merges.append(merged)
            try:
                for name in names:
                    while ledger.state(name) != DONE:
                        if ledger.validate_artifact(name):
                            # coordinator collect path: exactly-once done
                            seconds, counters, _ = read_sidecar(ledger, name)
                            ledger.mark_done(
                                name, seconds=seconds, metrics=counters
                            )
                            assert name not in collected_in
                            collected_in[name] = sessions
                            for key, value in counters.items():
                                merged[key] = merged.get(key, 0) + value
                            continue
                        action = (
                            scripts[name][cursor[name]]
                            if cursor[name] < len(scripts[name])
                            else "ok"
                        )
                        cursor[name] += 1
                        attempt = ledger.mark_running(name)
                        if action == CRASH:
                            ledger.record_failure(
                                name, {"kind": "crash"}, attempt
                            )
                        elif action == DIE_AFTER_COMMIT:
                            _commit(run_dir, ledger, name, model_dict)
                            raise _CoordinatorKilled(name)
                        else:
                            _commit(run_dir, ledger, name, model_dict)
            except _CoordinatorKilled:
                sessions += 1
                continue
            sessions += 1
            if all(
                RunLedger.load(run_dir).state(name) == DONE for name in names
            ):
                break
        final = RunLedger.load(run_dir)
        assert set(final.names_in(DONE)) == set(names)
        # each done cell's counters are in the total exactly once, no
        # matter how many coordinator deaths and resumes it took
        assert final.metrics_total().get("work", 0.0) == float(len(names))
        # ... and exactly one session performed each cell's merge (a
        # recovery-promoted cell flows through the ledger, never twice)
        merge_counts = {}
        for merged in session_merges:
            for key, value in merged.items():
                merge_counts[key] = merge_counts.get(key, 0.0) + value
        promoted = [n for n in names if n not in collected_in]
        assert merge_counts.get("work", 0.0) == float(
            len(names) - len(promoted)
        )
        for name in promoted:
            # died-after-commit cells the next session's recover()
            # promoted still carry their sidecar counters in the ledger
            assert final.cells[name]["metrics"] == {"work": 1.0}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


# ----------------------------------------------------------------------
# Commit / claim edge cases (deterministic)
# ----------------------------------------------------------------------


def test_commit_artifact_admits_exactly_one_winner(tmp_path):
    artifact = tmp_path / "models" / f"C0-{KEY}.json"
    artifact.parent.mkdir(parents=True)
    data = _cell_data("C0")
    assert commit_artifact(tmp_path, artifact, data) is True
    # the second committer loses the hardlink race and must discard
    assert commit_artifact(tmp_path, artifact, data) is False
    assert json.loads(artifact.read_text()) == data


def test_commit_artifact_never_relinks_a_corrupted_blob(tmp_path):
    """Writing into a committed artifact in place rewrites its CAS blob
    too (one inode); committing the same model again must publish the
    model's bytes, not link the corrupted blob a second time."""
    artifact = tmp_path / "models" / f"C0-{KEY}.json"
    artifact.parent.mkdir(parents=True)
    data = _cell_data("C0")
    assert commit_artifact(tmp_path, artifact, data) is True
    artifact.write_text('{"format": 1, "cell": "C0')
    artifact.unlink()
    assert commit_artifact(tmp_path, artifact, data) is True
    assert artifact.read_text() == json.dumps(data)


def test_claim_is_published_whole(tmp_path, monkeypatch):
    """A reaper running in the middle of a claim must never find an
    empty lease file, take it for a torn claim and reap a live lease."""
    from repro.service import lease as lease_module

    clock = FakeClock()
    claimer = LeaseStore(tmp_path, ttl=TTL, clock=clock)
    reaper = LeaseStore(tmp_path, ttl=TTL, clock=clock)
    reaped = []
    real_write = lease_module.os.write

    def reap_then_write(fd, data):
        reaped.extend(reaper.reap_expired())
        return real_write(fd, data)

    monkeypatch.setattr(lease_module.os, "write", reap_then_write)
    lease = claimer.claim("C0", "w0", 0)
    monkeypatch.undo()
    assert lease is not None
    assert reaped == []
    assert claimer.read("C0") == lease.to_dict()


def test_torn_claim_is_immediately_reapable(tmp_path):
    clock = FakeClock()
    leases = LeaseStore(tmp_path, ttl=TTL, clock=clock)
    (tmp_path / "leases" / "C0.json").write_text("{never finished")
    # a torn claim reads as an empty record, which counts as expired
    assert leases.read("C0") == {}
    reaped = leases.reap_expired()
    assert [record["cell"] for record in reaped] == ["C0"]
    assert leases.claim("C0", "w0", 0) is not None
