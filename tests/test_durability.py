"""Tests for repro.durability: WAL framing, crash injection, atomic writes,
DurableDatabase recovery, the crash matrix, and the durable NeuralDB."""

import pytest

from repro.durability import (
    CrashInjector,
    DurableDatabase,
    DurableNeuralDatabase,
    WriteAheadLog,
    atomic_write_bytes,
    discover_crash_points,
    dump_database,
    encode_record,
    random_dml_workload,
    read_wal,
    run_crash_matrix,
    run_crash_trial,
    scan_wal_bytes,
)
from repro.durability.wal import HEADER_LEN
from repro.errors import (
    DurabilityError,
    NeuralDBError,
    SimulatedCrash,
    SnapshotCorruptionError,
    SQLExecutionError,
    WALCorruptionError,
)
from repro.neuraldb.retriever import LexicalRetriever
from repro.sql import Database


# -- WAL framing and tail classification ------------------------------------
class TestWALFraming:
    def test_encode_scan_roundtrip(self):
        records = [{"lsn": i, "t": "stmt", "sql": f"op {i}"} for i in (1, 2, 3)]
        data = b"".join(encode_record(r) for r in records)
        result = scan_wal_bytes(data)
        assert result.records == records
        assert result.valid_bytes == len(data)
        assert result.torn_bytes == 0
        assert result.error is None
        assert result.last_lsn == 3

    def test_every_torn_prefix_classified_safely(self):
        """Cutting the log anywhere inside the final record is a torn
        tail — earlier records survive, nothing is misread, no error."""
        kept = [{"lsn": 1, "k": "first"}, {"lsn": 2, "k": "second"}]
        torn = {"lsn": 3, "k": "third record with a longer body"}
        prefix = b"".join(encode_record(r) for r in kept)
        data = prefix + encode_record(torn)
        for cut in range(len(prefix) + 1, len(data)):
            result = scan_wal_bytes(data[:cut])
            assert result.records == kept, f"cut at byte {cut}"
            assert result.error is None, f"cut at byte {cut}"
            assert result.valid_bytes == len(prefix)
            assert result.torn_bytes == cut - len(prefix)

    def test_corrupt_middle_record_is_an_error(self):
        data = bytearray(
            b"".join(encode_record({"lsn": i}) for i in (1, 2, 3))
        )
        data[len(data) // 2] ^= 0xFF
        result = scan_wal_bytes(bytes(data))
        assert result.error is not None

    def test_corrupt_payload_of_complete_final_record(self):
        """A fully written record failing its CRC is corruption, not a
        torn tail — it was acknowledged, so it must not be dropped."""
        good = encode_record({"lsn": 1, "v": "aaaa"})
        bad = bytearray(encode_record({"lsn": 2, "v": "bbbb"}))
        bad[HEADER_LEN + 2] ^= 0x01
        result = scan_wal_bytes(good + bytes(bad))
        assert result.records == [{"lsn": 1, "v": "aaaa"}]
        assert "CRC" in result.error

    def test_garbage_tail_is_an_error(self):
        good = encode_record({"lsn": 1})
        result = scan_wal_bytes(good + b"x" * (HEADER_LEN + 4))
        assert result.records == [{"lsn": 1}]
        assert result.error is not None

    def test_short_garbage_tail_reads_as_torn(self):
        # Less than a header's worth of trailing bytes cannot be told
        # apart from a half-written header: classified torn, dropped.
        good = encode_record({"lsn": 1})
        result = scan_wal_bytes(good + b"xyz")
        assert result.records == [{"lsn": 1}]
        assert result.error is None
        assert result.torn_bytes == 3

    def test_read_missing_file_is_empty(self, tmp_path):
        result = read_wal(tmp_path / "absent.log")
        assert result.records == []
        assert result.last_lsn == 0

    def test_oversized_record_rejected(self):
        with pytest.raises(DurabilityError):
            encode_record({"blob": "x" * 100_000_000})


class TestWriteAheadLog:
    def test_append_assigns_monotonic_lsns(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal.log") as wal:
            assert wal.append({"t": "a"}) == 1
            assert wal.append({"t": "b"}) == 2
        result = read_wal(tmp_path / "wal.log")
        assert [r["lsn"] for r in result.records] == [1, 2]

    def test_lsns_continue_across_reopen(self, tmp_path):
        path = tmp_path / "wal.log"
        with WriteAheadLog(path) as wal:
            wal.append({"t": "a"})
        scan = read_wal(path)
        with WriteAheadLog(path, next_lsn=scan.last_lsn + 1) as wal:
            assert wal.append({"t": "b"}) == 2

    def test_unsynced_appends_group_under_one_fsync(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal.log") as wal:
            wal.append({"t": "a"}, sync=False)
            wal.append({"t": "b"}, sync=False)
            assert wal.syncs == 0
            wal.sync()
            assert wal.syncs == 1
            assert wal.appends == 2

    def test_reset_keeps_lsn_sequence(self, tmp_path):
        with WriteAheadLog(tmp_path / "wal.log") as wal:
            wal.append({"t": "a"})
            wal.reset()
            assert wal.size() == 0
            assert wal.append({"t": "b"}) == 2

    def test_closed_log_refuses_appends(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log")
        wal.close()
        with pytest.raises(DurabilityError):
            wal.append({"t": "a"})


# -- crash injection ---------------------------------------------------------
class TestCrashInjector:
    def test_armed_point_fires_at_exact_occurrence(self):
        crash = CrashInjector().at("p", occurrence=3)
        crash.reach("p")
        crash.reach("p")
        with pytest.raises(SimulatedCrash) as exc_info:
            crash.reach("p")
        assert exc_info.value.point == "p"
        assert exc_info.value.occurrence == 3
        assert crash.crashes == 1

    def test_unarmed_injector_records_reaches(self):
        crash = CrashInjector()
        for _ in range(4):
            crash.reach("a")
        crash.reach("b")
        assert crash.seen == {"a": 4, "b": 1}
        assert crash.reached("a") == 4
        assert crash.crashes == 0

    def test_disarm(self):
        crash = CrashInjector().at("p")
        crash.disarm("p")
        crash.reach("p")  # no crash
        crash.at("p").at("q")
        crash.disarm()
        crash.reach("p")
        crash.reach("q")

    def test_seeded_random_crashes_are_deterministic(self):
        def crash_sites(seed):
            crash = CrashInjector(seed=seed, crash_rate=0.3)
            sites = []
            for step in range(50):
                try:
                    crash.reach("p")
                except SimulatedCrash:
                    sites.append(step)
            return sites

        assert crash_sites(7) == crash_sites(7)
        assert crash_sites(7) != crash_sites(8)
        assert crash_sites(7)  # rate 0.3 over 50 reaches must fire

    def test_invalid_arguments(self):
        with pytest.raises(DurabilityError):
            CrashInjector(crash_rate=1.0)
        with pytest.raises(DurabilityError):
            CrashInjector().at("p", occurrence=0)


# -- atomic writes -----------------------------------------------------------
ATOMIC_POINTS = (
    "file-before-write",
    "file-torn-write",
    "file-before-fsync",
    "mid-file-rename",
    "file-after-rename",
)


class TestAtomicWrite:
    def test_replaces_content(self, tmp_path):
        target = tmp_path / "data.bin"
        atomic_write_bytes(target, b"old contents")
        atomic_write_bytes(target, b"new contents")
        assert target.read_bytes() == b"new contents"

    @pytest.mark.parametrize("point", ATOMIC_POINTS)
    def test_crash_leaves_old_or_new_never_partial(self, tmp_path, point):
        target = tmp_path / "data.bin"
        atomic_write_bytes(target, b"old contents")
        crash = CrashInjector().at(point)
        with pytest.raises(SimulatedCrash):
            atomic_write_bytes(target, b"NEW PAYLOAD xxxx", crash=crash)
        assert target.read_bytes() in (b"old contents", b"NEW PAYLOAD xxxx")

    @pytest.mark.parametrize("point", ATOMIC_POINTS[:4])
    def test_crash_before_rename_keeps_old_version(self, tmp_path, point):
        target = tmp_path / "data.bin"
        atomic_write_bytes(target, b"old contents")
        with pytest.raises(SimulatedCrash):
            atomic_write_bytes(
                target, b"NEW PAYLOAD xxxx", crash=CrashInjector().at(point)
            )
        assert target.read_bytes() == b"old contents"

    def test_crash_on_fresh_path_leaves_no_destination(self, tmp_path):
        target = tmp_path / "fresh.bin"
        with pytest.raises(SimulatedCrash):
            atomic_write_bytes(
                target, b"payload", crash=CrashInjector().at("file-torn-write")
            )
        assert not target.exists()


# -- the durable SQL database ------------------------------------------------
def reopened(directory):
    """Open, snapshot the state, close — what a post-crash restart sees."""
    db = DurableDatabase.open(directory)
    state = db.state()
    db.close()
    return state, db.last_recovery


class TestDurableDatabase:
    def test_reopen_replays_to_identical_state(self, tmp_path):
        with DurableDatabase.open(tmp_path / "db") as db:
            db.execute("CREATE TABLE emp (id INT, name TEXT)")
            db.execute("INSERT INTO emp VALUES (1, 'ada'), (2, 'bob')")
            db.execute("UPDATE emp SET name = 'ann' WHERE id = 1")
            before = db.state()
        state, stats = reopened(tmp_path / "db")
        assert state == before
        assert stats.replayed_transactions == 3

    def test_reads_pass_through(self, tmp_path):
        with DurableDatabase.open(tmp_path / "db") as db:
            db.execute("CREATE TABLE t (x INT)")
            db.execute("INSERT INTO t VALUES (1), (2), (3)")
            result = db.execute("SELECT COUNT(*) FROM t")
            assert result.rows[0][0] == 3
            assert db.table_names() == ["t"]
            assert len(db.table("t")) == 3

    def test_committed_transaction_survives(self, tmp_path):
        with DurableDatabase.open(tmp_path / "db") as db:
            db.execute("CREATE TABLE t (x INT)")
            db.begin()
            db.execute("INSERT INTO t VALUES (1)")
            db.execute("INSERT INTO t VALUES (2)")
            assert db.in_transaction
            db.commit()
            assert not db.in_transaction
        state, _ = reopened(tmp_path / "db")
        assert state["tables"][0]["rows"] == [[1], [2]]

    def test_transaction_pays_one_fsync(self, tmp_path):
        with DurableDatabase.open(tmp_path / "db") as db:
            db.execute("CREATE TABLE t (x INT)")
            before = db.wal.syncs
            db.begin()
            db.execute("INSERT INTO t VALUES (1)")
            db.execute("INSERT INTO t VALUES (2)")
            db.execute("INSERT INTO t VALUES (3)")
            db.commit()
            assert db.wal.syncs == before + 1

    def test_rollback_discards_memory_and_log(self, tmp_path):
        with DurableDatabase.open(tmp_path / "db") as db:
            db.execute("CREATE TABLE t (x INT)")
            db.execute("INSERT INTO t VALUES (1)")
            db.begin()
            db.execute("INSERT INTO t VALUES (99)")
            db.rollback()
            assert [r for r in db.table("t")] == [(1,)]
        state, _ = reopened(tmp_path / "db")
        assert state["tables"][0]["rows"] == [[1]]

    def test_uncommitted_transaction_invisible_after_crash(self, tmp_path):
        db = DurableDatabase.open(tmp_path / "db")
        db.execute("CREATE TABLE t (x INT)")
        db.begin()
        db.execute("INSERT INTO t VALUES (42)")
        db.close()  # crash before commit: the txn never became durable
        state, _ = reopened(tmp_path / "db")
        assert state["tables"][0]["rows"] == []

    def test_statement_error_aborts_transaction(self, tmp_path):
        """PostgreSQL semantics: a failed statement aborts the txn and
        the in-memory state falls back to the durable state."""
        with DurableDatabase.open(tmp_path / "db") as db:
            db.execute("CREATE TABLE t (x INT)")
            db.begin()
            db.execute("INSERT INTO t VALUES (1)")
            with pytest.raises(SQLExecutionError):
                db.execute("INSERT INTO t VALUES ('not an int')")
            assert not db.in_transaction
            assert [r for r in db.table("t")] == []
        state, _ = reopened(tmp_path / "db")
        assert state["tables"][0]["rows"] == []

    def test_failed_autocommit_statement_leaves_no_trace(self, tmp_path):
        with DurableDatabase.open(tmp_path / "db") as db:
            db.execute("CREATE TABLE t (x INT)")
            with pytest.raises(SQLExecutionError):
                # The second row fails coercion after the first applied;
                # the whole statement must vanish, in memory and on disk.
                db.execute("INSERT INTO t VALUES (5), ('bad')")
            assert [r for r in db.table("t")] == []
        state, _ = reopened(tmp_path / "db")
        assert state["tables"][0]["rows"] == []

    def test_compaction_preserves_state(self, tmp_path):
        with DurableDatabase.open(tmp_path / "db") as db:
            db.execute("CREATE TABLE t (x INT)")
            db.execute("INSERT INTO t VALUES (1), (2)")
            db.compact()
            assert db.wal.size() == 0
            db.execute("INSERT INTO t VALUES (3)")
            before = db.state()
        state, stats = reopened(tmp_path / "db")
        assert state == before
        assert stats.snapshot_loaded
        assert stats.wal_records > 0

    def test_crash_between_snapshot_and_truncate_is_idempotent(self, tmp_path):
        """The WAL survives the snapshot rename; LSN tracking must keep
        replay from applying the snapshotted records a second time."""
        db = DurableDatabase.open(
            tmp_path / "db", crash=CrashInjector().at("before-wal-truncate")
        )
        db.execute("CREATE TABLE t (x INT)")
        db.execute("INSERT INTO t VALUES (1), (2)")
        expected = db.state()
        with pytest.raises(SimulatedCrash):
            db.compact()
        db.close()
        state, stats = reopened(tmp_path / "db")
        assert state == expected
        assert stats.snapshot_loaded
        assert stats.replayed_statements == 0  # all records skipped by LSN

    def test_index_survives_reopen_and_compaction(self, tmp_path):
        with DurableDatabase.open(tmp_path / "db") as db:
            db.execute("CREATE TABLE t (x INT, g TEXT)")
            db.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b')")
            db.execute("CREATE INDEX idx_g ON t (g)")
            db.compact()
        with DurableDatabase.open(tmp_path / "db") as db:
            assert db.table("t").has_index("g")

    def test_put_table_and_load_csv_are_durable(self, tmp_path):
        from repro.sql.table import Table

        table = Table.from_dicts(
            "people", [{"id": 1, "name": "ada"}, {"id": 2, "name": "bob"}]
        )
        csv_path = table.to_csv(tmp_path / "people.csv")
        with DurableDatabase.open(tmp_path / "db") as db:
            db.put_table(table)
            db.load_csv("people_csv", csv_path)
            before = db.state()
        state, _ = reopened(tmp_path / "db")
        assert state == before
        assert sorted(t["name"] for t in state["tables"]) == [
            "people",
            "people_csv",
        ]

    def test_torn_tail_is_repaired_silently(self, tmp_path):
        db = DurableDatabase.open(tmp_path / "db")
        db.execute("CREATE TABLE t (x INT)")
        db.execute("INSERT INTO t VALUES (1)")
        db.execute("INSERT INTO t VALUES (2)")
        db.close()
        wal = tmp_path / "db" / DurableDatabase.WAL_NAME
        wal.write_bytes(wal.read_bytes()[:-3])  # tear the final commit
        state, stats = reopened(tmp_path / "db")
        assert stats.repaired_bytes > 0
        assert state["tables"][0]["rows"] == [[1]]  # last insert unacked
        # The repair truncated the file: a second open is clean.
        _, stats = reopened(tmp_path / "db")
        assert stats.repaired_bytes == 0

    def test_corrupt_wal_record_refuses_to_open(self, tmp_path):
        db = DurableDatabase.open(tmp_path / "db")
        db.execute("CREATE TABLE t (x INT)")
        db.execute("INSERT INTO t VALUES (1)")
        db.close()
        wal = tmp_path / "db" / DurableDatabase.WAL_NAME
        data = bytearray(wal.read_bytes())
        data[HEADER_LEN + 4] ^= 0xFF  # flip a byte of the first payload
        wal.write_bytes(bytes(data))
        with pytest.raises(WALCorruptionError):
            DurableDatabase.open(tmp_path / "db")

    def test_corrupt_snapshot_body_refuses_to_open(self, tmp_path):
        db = DurableDatabase.open(tmp_path / "db")
        db.execute("CREATE TABLE t (x INT)")
        db.execute("INSERT INTO t VALUES (1)")
        db.compact()
        db.close()
        snap = tmp_path / "db" / DurableDatabase.SNAPSHOT_NAME
        data = bytearray(snap.read_bytes())
        data[-2] ^= 0xFF
        snap.write_bytes(bytes(data))
        with pytest.raises(SnapshotCorruptionError):
            DurableDatabase.open(tmp_path / "db")

    def test_garbage_snapshot_header_refuses_to_open(self, tmp_path):
        db = DurableDatabase.open(tmp_path / "db")
        db.execute("CREATE TABLE t (x INT)")
        db.compact()
        db.close()
        snap = tmp_path / "db" / DurableDatabase.SNAPSHOT_NAME
        snap.write_bytes(b"not a header\n" + snap.read_bytes())
        with pytest.raises(SnapshotCorruptionError):
            DurableDatabase.open(tmp_path / "db")

    def test_transaction_protocol_errors(self, tmp_path):
        with DurableDatabase.open(tmp_path / "db") as db:
            with pytest.raises(DurabilityError):
                db.commit()
            with pytest.raises(DurabilityError):
                db.rollback()
            db.begin()
            with pytest.raises(DurabilityError):
                db.begin()  # no nesting
            with pytest.raises(DurabilityError):
                db.compact()  # not inside a transaction
            db.rollback()

    def test_closed_database_refuses_work(self, tmp_path):
        db = DurableDatabase.open(tmp_path / "db")
        db.close()
        with pytest.raises(DurabilityError):
            db.execute("CREATE TABLE t (x INT)")

    def test_non_durable_mode_skips_fsync_but_keeps_log(self, tmp_path):
        with DurableDatabase.open(tmp_path / "db", durable=False) as db:
            db.execute("CREATE TABLE t (x INT)")
            db.execute("INSERT INTO t VALUES (1)")
            before = db.state()
        state, _ = reopened(tmp_path / "db")
        assert state == before


# -- the crash matrix (property-style acceptance test) -----------------------
class TestCrashMatrix:
    def test_workload_is_seeded_and_structured(self):
        workload = random_dml_workload(3, num_statements=25)
        assert workload == random_dml_workload(3, num_statements=25)
        assert workload != random_dml_workload(4, num_statements=25)
        assert "BEGIN" in workload and "COMMIT" in workload
        assert "ROLLBACK" in workload and "COMPACT" in workload

    def test_discovery_finds_wal_and_snapshot_points(self, tmp_path):
        points = discover_crash_points(
            tmp_path / "d", random_dml_workload(0, num_statements=24)
        )
        assert {
            "wal-before-append",
            "wal-torn-append",
            "wal-after-append",
            "wal-before-fsync",
            "wal-after-fsync",
            "snapshot-before-write",
            "snapshot-torn-write",
            "snapshot-before-fsync",
            "mid-snapshot-rename",
            "snapshot-after-rename",
            "before-wal-truncate",
        } <= set(points)

    def test_single_trial_verifies_against_shadow(self, tmp_path):
        workload = random_dml_workload(0, num_statements=24)
        trial = run_crash_trial(
            tmp_path / "d", workload, "wal-torn-append", occurrence=3
        )
        assert trial.crashed
        assert trial.ok

    def test_every_crash_point_recovers_to_acknowledged_state(self, tmp_path):
        """The acceptance property: for seeded random DML workloads,
        crashing at every reachable point and reopening yields exactly
        the tables of an uncrashed shadow Database (modulo in-flight
        commits, which must land all-or-nothing)."""
        report = run_crash_matrix(
            tmp_path, seeds=(0, 1, 2), num_statements=26
        )
        assert report.all_ok, "\n".join(report.render())
        assert len(report.trials) >= 3 * len(report.points) >= 3 * 11
        assert all(t.crashed for t in report.trials)

    def test_uncrashed_workload_matches_plain_database(self, tmp_path):
        """With no crash at all, DurableDatabase and a plain Database
        fed the acknowledged statements are indistinguishable."""
        from repro.durability.harness import _run_workload

        workload = random_dml_workload(5, num_statements=24)
        db = DurableDatabase.open(tmp_path / "d")
        shadow, inflight, crashed = _run_workload(db, workload)
        assert not crashed and inflight is None
        assert db.state() == dump_database(shadow)
        db.close()


# -- the durable NeuralDB ----------------------------------------------------
class LastWordReader:
    """A deterministic reader stub: every fact template used in these
    tests ends '<answer> .', so the answer is the last real token."""

    def read(self, fact, question):
        return fact.rstrip(" .").split()[-1]

    def read_batch(self, items):
        return [self.read(fact, question) for fact, question in items]


FACTS = [
    "alice works in engineering .",
    "bob works in sales .",
    "carol works in engineering .",
    "engineering is located in the tower .",
    "sales is located in the annex .",
]


def open_store(directory, **kwargs):
    return DurableNeuralDatabase.open(
        directory, LexicalRetriever, LastWordReader(), **kwargs
    )


class TestDurableNeuralDatabase:
    def test_reopen_reindexes_to_identical_answers(self, tmp_path):
        store = open_store(tmp_path / "ndb", initial_facts=FACTS)
        before_lookup = store.lookup("where does alice work ?")
        before_count = store.count_department("engineering")
        store.close()

        reopened_store = open_store(tmp_path / "ndb")
        assert reopened_store.facts == FACTS
        after_lookup = reopened_store.lookup("where does alice work ?")
        assert after_lookup == before_lookup
        assert reopened_store.count_department("engineering") == before_count
        assert reopened_store.join_lookup("alice").answer == "tower"
        reopened_store.close()

    def test_mutations_are_durable(self, tmp_path):
        with open_store(tmp_path / "ndb", initial_facts=FACTS) as store:
            store.add_fact("dave works in sales .")
            store.remove_fact("bob works in sales .")
        with open_store(tmp_path / "ndb") as store:
            assert "dave works in sales ." in store.facts
            assert "bob works in sales ." not in store.facts
            assert store.count_department("sales").answer == 1

    @pytest.mark.parametrize(
        "point",
        [
            "wal-before-append",
            "wal-torn-append",
            "wal-after-append",
            "wal-before-fsync",
            "wal-after-fsync",
        ],
    )
    def test_crash_during_add_fact_is_all_or_nothing(self, tmp_path, point):
        store = open_store(tmp_path / "ndb", initial_facts=FACTS)
        store.close()
        crash = CrashInjector().at(point)
        store = open_store(tmp_path / "ndb", crash=crash)
        with pytest.raises(SimulatedCrash):
            store.add_fact("dave works in sales .")
        store.close()

        recovered = open_store(tmp_path / "ndb")
        # The add was never acknowledged, so either outcome is legal —
        # but the store must be exactly one of the two, and queries must
        # match a fresh NeuralDatabase over the recovered facts.
        assert recovered.facts in (FACTS, FACTS + ["dave works in sales ."])
        from repro.neuraldb import NeuralDatabase

        fresh = NeuralDatabase(LexicalRetriever(recovered.facts), LastWordReader())
        question = "where does carol work ?"
        assert recovered.lookup(question) == fresh.lookup(question)
        assert (
            recovered.count_department("sales").answer
            == fresh.count_department("sales").answer
        )
        recovered.close()

    def test_torn_tail_is_repaired(self, tmp_path):
        with open_store(tmp_path / "ndb", initial_facts=FACTS) as store:
            store.add_fact("dave works in sales .")
        log = tmp_path / "ndb" / DurableNeuralDatabase.LOG_NAME
        log.write_bytes(log.read_bytes()[:-4])
        store = open_store(tmp_path / "ndb")
        assert store.repaired_bytes > 0
        assert store.facts == FACTS  # the torn add was never acked
        store.close()

    def test_corrupt_log_refuses_to_open(self, tmp_path):
        with open_store(tmp_path / "ndb", initial_facts=FACTS):
            pass
        log = tmp_path / "ndb" / DurableNeuralDatabase.LOG_NAME
        data = bytearray(log.read_bytes())
        data[HEADER_LEN + 6] ^= 0xFF
        log.write_bytes(bytes(data))
        with pytest.raises(WALCorruptionError):
            open_store(tmp_path / "ndb")

    def test_empty_directory_needs_seed_facts(self, tmp_path):
        with pytest.raises(NeuralDBError):
            open_store(tmp_path / "ndb")

    def test_validation_errors(self, tmp_path):
        with open_store(tmp_path / "ndb", initial_facts=FACTS[:2]) as store:
            with pytest.raises(NeuralDBError):
                store.add_fact("   ")
            with pytest.raises(NeuralDBError):
                store.remove_fact("never stored .")
            store.remove_fact(FACTS[0])
            with pytest.raises(NeuralDBError):
                store.remove_fact(FACTS[1])  # cannot drop the last fact
