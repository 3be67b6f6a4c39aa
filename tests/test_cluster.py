"""Tests for repro.sql.cluster: hash partitioning, distributed queries,
WAL log shipping (including fuzzed frames), failover with exactly-once
re-routing, and the cluster crash matrix."""

import threading

import pytest

from repro.durability import CrashInjector, DurableDatabase, dump_database
from repro.durability.harness import random_dml_workload, run_crash_matrix
from repro.durability.wal import encode_record, scan_wal_bytes
from repro.errors import (
    ClusterError,
    ReplicationError,
    ShardUnavailableError,
)
from repro.sql import Database, parser
from repro.sql.cluster import (
    GATHER,
    PARTIAL_AGG,
    RECEIVE_CORRUPT,
    RECEIVE_OK,
    RECEIVE_REORDER,
    RECEIVE_TORN,
    SCATTER,
    SINGLE_SHARD,
    ClusterDatabase,
    PartitionMap,
    ShardReplica,
    canonicalize,
    hash_value,
    plan_select,
    run_cluster_crash_matrix,
    run_cluster_crash_trial,
    run_cluster_failover_matrix,
)
from repro.sql.schema import TableSchema
from repro.sql.types import SQLType


def seeded_cluster(tmp_path, num_shards=2, rows=24, **kwargs):
    """A single-node database and its partitioned twin, same content."""
    single = Database()
    single.execute("CREATE TABLE users (id INT, grp TEXT, score FLOAT)")
    single.execute("CREATE TABLE bonus (id INT, pts INT)")
    for i in range(rows):
        single.execute(
            f"INSERT INTO users VALUES ({i}, 'g{i % 3}', {i % 7}.5)"
        )
        if i % 2 == 0:
            single.execute(f"INSERT INTO bonus VALUES ({i}, {i * 10})")
    cluster = ClusterDatabase.from_database(
        single, tmp_path / "cluster", num_shards=num_shards, **kwargs
    )
    return single, cluster


# -- partitioning ------------------------------------------------------------
class TestPartitioning:
    def test_hash_routing_is_deterministic(self):
        assert hash_value(42, 4) == hash_value(42, 4)
        assert all(0 <= hash_value(v, 3) < 3 for v in (None, 0, -1, "x", 2.5))

    def test_register_defaults_to_first_column(self):
        pmap = PartitionMap(2)
        schema = TableSchema.build(
            "t", [("id", SQLType.INT), ("v", SQLType.TEXT)]
        )
        pmap.register(schema)
        assert pmap.key_column("t") == "id"
        assert pmap.is_registered("T")  # case-insensitive

    def test_same_key_same_shard_across_types(self):
        pmap = PartitionMap(4)
        schema = TableSchema.build("t", [("id", SQLType.INT)])
        pmap.register(schema)
        # values are coerced through the key's SQL type before hashing,
        # so 7 and 7.0 land on the same shard
        assert pmap.shard_of("t", 7) == pmap.shard_of("t", 7.0)

    def test_roundtrip_through_dict(self):
        pmap = PartitionMap(3)
        pmap.register(TableSchema.build("t", [("id", SQLType.INT)]))
        clone = PartitionMap.from_dict(pmap.to_dict())
        assert clone.num_shards == 3
        assert clone.key_column("t") == "id"
        for value in range(20):
            assert clone.shard_of("t", value) == pmap.shard_of("t", value)

    def test_unknown_table_is_typed_error(self):
        with pytest.raises(ClusterError):
            PartitionMap(2).partitioning("nope")


# -- distributed queries: row-identical to single-node -----------------------
EQUIVALENCE_QUERIES = [
    "SELECT * FROM users ORDER BY id",
    "SELECT id, score FROM users WHERE score > 2 ORDER BY id",
    "SELECT grp, COUNT(*), SUM(score), AVG(score), MIN(id), MAX(id) "
    "FROM users GROUP BY grp ORDER BY grp",
    "SELECT COUNT(*) FROM users",
    "SELECT AVG(score) FROM users WHERE grp = 'g1'",
    "SELECT DISTINCT grp FROM users ORDER BY grp",
    "SELECT id FROM users ORDER BY id LIMIT 5",
    "SELECT grp, COUNT(*) AS n FROM users GROUP BY grp "
    "HAVING COUNT(*) > 2 ORDER BY n, grp",
    "SELECT users.id, bonus.pts FROM users "
    "JOIN bonus ON users.id = bonus.id ORDER BY users.id",
    "SELECT id FROM users WHERE id = 7",
    "SELECT grp FROM users WHERE score > "
    "(SELECT AVG(score) FROM users) ORDER BY id",
]


class TestQueryEquivalence:
    @pytest.mark.parametrize("num_shards", [1, 2, 3])
    def test_cluster_matches_single_node(self, tmp_path, num_shards):
        single, cluster = seeded_cluster(tmp_path, num_shards=num_shards)
        for sql in EQUIVALENCE_QUERIES:
            expected = single.execute(sql)
            got = cluster.execute(sql)
            assert got.columns == expected.columns, sql
            assert got.rows == expected.rows, sql
        cluster.close()

    def test_strategies_chosen(self, tmp_path):
        _, cluster = seeded_cluster(tmp_path, num_shards=2)
        cases = [
            ("SELECT id FROM users WHERE id = 3", SINGLE_SHARD),
            ("SELECT id FROM users ORDER BY id", SCATTER),
            ("SELECT COUNT(*) FROM users", PARTIAL_AGG),
            ("SELECT id FROM users WHERE score > "
             "(SELECT AVG(score) FROM users)", GATHER),
        ]
        for sql, strategy in cases:
            result = cluster.execute(sql)
            assert result.strategy == strategy, sql
        single_shard = cluster.execute("SELECT id FROM users WHERE id = 3")
        assert len(single_shard.shards) == 1
        cluster.close()

    def test_gather_reason_is_recorded(self, tmp_path):
        _, cluster = seeded_cluster(tmp_path)
        result = cluster.execute(
            "SELECT id FROM users WHERE score > (SELECT AVG(score) FROM users)"
        )
        assert "subquery" in result.reason
        cluster.close()

    def test_explain_names_the_strategy(self, tmp_path):
        _, cluster = seeded_cluster(tmp_path)
        plan = cluster.execute("EXPLAIN SELECT COUNT(*) FROM users")
        text = "\n".join(row[0] for row in plan.rows)
        assert "partial-aggregate" in text
        cluster.close()

    def test_fan_out_runs_on_the_calling_thread(self, tmp_path, monkeypatch):
        from repro.sql.cluster import coordinator

        _, cluster = seeded_cluster(tmp_path, num_shards=2)
        threads = []
        real = coordinator.execute_select

        def spy(*args, **kwargs):
            threads.append(threading.get_ident())
            return real(*args, **kwargs)

        monkeypatch.setattr(coordinator, "execute_select", spy)
        for sql, strategy in [
            ("SELECT id FROM users ORDER BY id", SCATTER),
            ("SELECT COUNT(*) FROM users", PARTIAL_AGG),
        ]:
            assert cluster.execute(sql).strategy == strategy, sql
        cluster.close()
        # 2 shard queries each, plus the partial-aggregate merge
        assert len(threads) == 5
        assert set(threads) == {threading.get_ident()}


# -- DML routing -------------------------------------------------------------
class TestDMLRouting:
    def test_insert_splits_rows_by_key_hash(self, tmp_path):
        cluster = ClusterDatabase(tmp_path / "c", num_shards=3)
        cluster.execute("CREATE TABLE t (id INT, v INT)")
        cluster.execute(
            "INSERT INTO t VALUES " +
            ", ".join(f"({i}, {i})" for i in range(30))
        )
        per_shard = [
            len(shard.primary.db.catalog.resolve("t").rows)
            for shard in cluster.shards
        ]
        assert sum(per_shard) == 30
        assert all(count > 0 for count in per_shard)  # 30 keys spread
        for shard in cluster.shards:
            for row in shard.primary.db.catalog.resolve("t").rows:
                assert cluster.pmap.shard_of("t", row[0]) == shard.shard_id
        cluster.close()

    def test_update_and_delete_match_single_node(self, tmp_path):
        single, cluster = seeded_cluster(tmp_path)
        for sql in (
            "UPDATE users SET score = score * 2 WHERE grp = 'g0'",
            "UPDATE users SET score = 0 WHERE id = 5",  # pruned to 1 shard
            "DELETE FROM users WHERE id = 9",           # pruned to 1 shard
            "DELETE FROM users WHERE score > 10",
        ):
            single.execute(sql)
            cluster.execute(sql)
        assert cluster.state() == canonicalize(dump_database(single))
        cluster.close()

    def test_partition_key_update_is_rejected(self, tmp_path):
        _, cluster = seeded_cluster(tmp_path)
        with pytest.raises(ClusterError, match="partition key"):
            cluster.execute("UPDATE users SET id = id + 100")
        cluster.close()

    def test_cross_shard_transaction_commit_and_rollback(self, tmp_path):
        cluster = ClusterDatabase(tmp_path / "c", num_shards=2)
        cluster.execute("CREATE TABLE t (id INT, v INT)")
        cluster.begin()
        cluster.execute("INSERT INTO t VALUES (0, 0), (1, 1), (2, 2), (3, 3)")
        cluster.commit()
        assert cluster.execute("SELECT COUNT(*) FROM t").rows == [(4,)]
        cluster.begin()
        cluster.execute("DELETE FROM t WHERE v >= 0")
        cluster.rollback()
        assert cluster.execute("SELECT COUNT(*) FROM t").rows == [(4,)]
        cluster.close()

    def test_ddl_inside_transaction_is_rejected(self, tmp_path):
        cluster = ClusterDatabase(tmp_path / "c", num_shards=2)
        cluster.begin()
        with pytest.raises(ClusterError, match="transaction"):
            cluster.execute("CREATE TABLE t (id INT)")
        cluster.rollback()
        cluster.close()


# -- replication -------------------------------------------------------------
class TestReplication:
    def test_acknowledged_writes_are_on_the_replica(self, tmp_path):
        _, cluster = seeded_cluster(tmp_path)
        for shard in cluster.shards:
            assert shard.replication_lag() == 0
            assert shard.replica.state() == dump_database(shard.primary.db)
            assert shard.replicator.stats.ships > 0
        cluster.close()

    def test_reshipped_frames_are_skipped_as_duplicates(self, tmp_path):
        _, cluster = seeded_cluster(tmp_path)
        shard = cluster.shards[0]
        assert shard.replicator.ship() == 0  # nothing new
        shard.replicator.shipped_bytes = 0   # simulate a lost ack
        assert shard.replicator.ship() == 0  # re-ship applies nothing
        assert shard.replicator.stats.duplicates_skipped > 0
        assert shard.replica.state() == dump_database(shard.primary.db)
        cluster.close()

    def test_compaction_reseeds_the_replica(self, tmp_path):
        _, cluster = seeded_cluster(tmp_path)
        cluster.compact()
        for shard in cluster.shards:
            assert shard.replicator.stats.reseeds >= 1
            assert shard.replica.state() == dump_database(shard.primary.db)
        cluster.execute("INSERT INTO users VALUES (100, 'g0', 1.5)")
        assert cluster.replication_lag() == 0
        cluster.close()


# -- one parse per write -----------------------------------------------------
class TestOneParsePerWrite:
    def test_each_write_tokenizes_its_text_once(self, tmp_path, monkeypatch):
        """Coordinator, primary, engine and replica apply share one parse."""
        single, cluster = seeded_cluster(tmp_path)
        calls = []
        tokenize = parser.tokenize_sql

        def counting(sql):
            calls.append(sql)
            return tokenize(sql)

        monkeypatch.setattr(parser, "tokenize_sql", counting)
        parser.parse_sql.cache_clear()
        for sql in (
            "UPDATE users SET score = score + 1 WHERE id = 3",
            "INSERT INTO users VALUES (100, 'g1', 2.5)",
            "DELETE FROM users WHERE id = 100",
            # One shard takes every row, so the text ships as written.
            "insert into users values (2, 'g1', 2.5)",
        ):
            calls.clear()
            assert cluster.execute(sql).rowcount == 1
            assert calls == [sql]
            single.execute(sql)
        for shard in cluster.shards:
            assert shard.replication_lag() == 0
            assert shard.replica.state() == dump_database(shard.primary.db)
        state = cluster.state()
        assert state == canonicalize(dump_database(single))
        cluster.close()
        reopened = ClusterDatabase(tmp_path / "cluster")
        try:
            assert reopened.state() == state
        finally:
            reopened.close()


# -- log-shipping fuzz: bit-flips, truncation, reordering --------------------
def primary_frames(tmp_path, n=4):
    """Real WAL bytes from a primary, plus the expected row count."""
    primary = DurableDatabase(tmp_path / "primary")
    primary.execute("CREATE TABLE t (id INT, v INT)")
    for i in range(n):
        primary.execute(f"INSERT INTO t VALUES ({i}, {i * 10})")
    raw = primary.wal_path.read_bytes()
    primary.close()
    return raw


class TestShippingFuzz:
    def test_clean_chunk_applies_fully(self, tmp_path):
        raw = primary_frames(tmp_path)
        replica = ShardReplica(tmp_path / "replica")
        result = replica.receive(raw)
        assert result.status == RECEIVE_OK
        assert result.applied == len(scan_wal_bytes(raw).records)
        assert replica.query("SELECT COUNT(*) FROM t").rows == [(4,)]
        replica.close()

    def test_truncated_chunk_is_torn_then_completes(self, tmp_path):
        raw = primary_frames(tmp_path)
        replica = ShardReplica(tmp_path / "replica")
        for cut in (len(raw) // 3, len(raw) // 2, len(raw) - 3):
            shutil_replica = ShardReplica(tmp_path / f"r{cut}")
            first = shutil_replica.receive(raw[:cut])
            assert first.status in (RECEIVE_OK, RECEIVE_TORN)
            second = shutil_replica.receive(raw[cut:])
            assert second.status == RECEIVE_OK
            assert shutil_replica.watermark == scan_wal_bytes(raw).last_lsn
            assert (
                shutil_replica.query("SELECT COUNT(*) FROM t").rows == [(4,)]
            )
            shutil_replica.close()
        replica.close()

    def test_bit_flip_is_classified_corrupt_and_never_applied(self, tmp_path):
        raw = primary_frames(tmp_path)
        records = scan_wal_bytes(raw).records
        # flip one payload byte in the middle of the log
        target = len(raw) // 2
        mutated = bytearray(raw)
        mutated[target] ^= 0xFF
        replica = ShardReplica(tmp_path / "replica")
        result = replica.receive(bytes(mutated))
        assert result.status == RECEIVE_CORRUPT
        assert result.error
        # only the frames before the flipped one were applied
        assert replica.watermark < records[-1]["lsn"]
        valid_prefix = scan_wal_bytes(bytes(mutated)).records
        assert replica.watermark == (
            valid_prefix[-1]["lsn"] if valid_prefix else 0
        )
        replica.close()

    def test_reordered_frames_are_rejected(self, tmp_path):
        raw = primary_frames(tmp_path)
        records = scan_wal_bytes(raw).records
        assert len(records) >= 4
        skipped = b"".join(
            encode_record(r) for r in (records[0], records[2], records[3])
        )
        replica = ShardReplica(tmp_path / "replica")
        result = replica.receive(skipped)
        assert result.status == RECEIVE_REORDER
        assert result.applied == 1  # only the in-order first frame
        assert replica.watermark == records[0]["lsn"]
        replica.close()

    def test_duplicate_chunk_is_idempotent(self, tmp_path):
        raw = primary_frames(tmp_path)
        replica = ShardReplica(tmp_path / "replica")
        replica.receive(raw)
        before = replica.state()
        again = replica.receive(raw)
        assert again.applied == 0
        assert again.duplicates == len(scan_wal_bytes(raw).records)
        assert replica.state() == before
        replica.close()

    def test_replica_survives_reopen_after_torn_tail(self, tmp_path):
        raw = primary_frames(tmp_path)
        replica = ShardReplica(tmp_path / "replica")
        replica.receive(raw[: len(raw) - 5])  # torn tail buffered
        watermark = replica.watermark
        replica.close()
        reopened = ShardReplica(tmp_path / "replica")
        assert reopened.watermark == watermark
        reopened.close()


# -- failover ----------------------------------------------------------------
class TestFailover:
    def test_crash_before_ship_reroutes_the_statement(self, tmp_path):
        crash = CrashInjector().at("ship-before-send", 4)
        cluster = ClusterDatabase(
            tmp_path / "c", num_shards=2, crash=crash, failover=True
        )
        cluster.execute("CREATE TABLE t (id INT, v INT)")
        for i in range(8):
            cluster.execute(f"INSERT INTO t VALUES ({i}, {i})")
        assert cluster.stats.failovers == 1
        assert cluster.stats.reroutes_applied >= 1
        assert cluster.execute("SELECT COUNT(*) FROM t").rows == [(8,)]
        cluster.close()

    def test_crash_after_ship_is_deduplicated(self, tmp_path):
        # ship-after-send: the write is durable on BOTH sides, only the
        # ack was lost — re-routing must skip it (exactly-once).
        crash = CrashInjector().at("ship-after-send", 4)
        cluster = ClusterDatabase(
            tmp_path / "c", num_shards=2, crash=crash, failover=True
        )
        cluster.execute("CREATE TABLE t (id INT, v INT)")
        for i in range(8):
            cluster.execute(f"INSERT INTO t VALUES ({i}, {i})")
        assert cluster.stats.failovers == 1
        assert cluster.stats.reroutes_deduped >= 1
        assert cluster.execute("SELECT COUNT(*) FROM t").rows == [(8,)]
        assert cluster.execute("SELECT SUM(v) FROM t").rows == [(28,)]
        cluster.close()

    def test_promotion_flips_role_and_survives_reopen(self, tmp_path):
        cluster = ClusterDatabase(tmp_path / "c", num_shards=2)
        cluster.execute("CREATE TABLE t (id INT, v INT)")
        cluster.execute("INSERT INTO t VALUES (0, 0), (1, 1), (2, 2)")
        shard = cluster.shards[0]
        old_home = shard.primary_home
        shard.kill()
        shard.promote()
        assert shard.primary_home != old_home
        assert not shard.dead
        count = cluster.execute("SELECT COUNT(*) FROM t").rows
        cluster.close()
        reopened = ClusterDatabase(tmp_path / "c", num_shards=2)
        assert reopened.shards[0].primary_home != old_home
        assert reopened.execute("SELECT COUNT(*) FROM t").rows == count
        reopened.close()

    def test_killed_shard_write_promotes_before_executing(self, tmp_path):
        # An externally killed shard (dead *before* the statement, no
        # SimulatedCrash in flight) must fail over on the write path,
        # not leak ShardUnavailableError despite failover=True.
        cluster = ClusterDatabase(tmp_path / "c", num_shards=2)
        cluster.execute("CREATE TABLE t (id INT, v INT)")
        cluster.execute("INSERT INTO t VALUES (0, 0), (1, 1), (2, 2)")
        dead_key = next(
            k for k in range(50) if cluster.pmap.shard_of("t", k) == 1
        )
        cluster.shards[1].kill()
        cluster.execute(f"INSERT INTO t VALUES ({dead_key}, 9)")
        assert cluster.stats.failovers == 1
        assert cluster.execute("SELECT COUNT(*) FROM t").rows == [(4,)]
        cluster.close()

    def test_killed_shard_mid_transaction_rebuilds_and_commits(self, tmp_path):
        cluster = ClusterDatabase(tmp_path / "c", num_shards=2)
        cluster.execute("CREATE TABLE t (id INT, v INT)")
        shard1_keys = [
            k for k in range(50) if cluster.pmap.shard_of("t", k) == 1
        ][:2]
        cluster.begin()
        cluster.execute(f"INSERT INTO t VALUES ({shard1_keys[0]}, 1)")
        cluster.shards[1].kill()
        # next statement on the same shard: promote, rebuild the open
        # transaction from the coordinator's buffer, keep going
        cluster.execute(f"INSERT INTO t VALUES ({shard1_keys[1]}, 2)")
        cluster.commit()
        assert cluster.stats.failovers == 1
        assert cluster.execute("SELECT SUM(v) FROM t").rows == [(3,)]
        cluster.close()

    def test_killed_shard_between_statement_and_commit(self, tmp_path):
        cluster = ClusterDatabase(tmp_path / "c", num_shards=2)
        cluster.execute("CREATE TABLE t (id INT, v INT)")
        key = next(k for k in range(50) if cluster.pmap.shard_of("t", k) == 0)
        cluster.begin()
        cluster.execute(f"INSERT INTO t VALUES ({key}, 7)")
        cluster.shards[0].kill()
        cluster.commit()  # rolls the buffered statement forward, tag-checked
        assert cluster.stats.failovers == 1
        assert cluster.stats.reroutes_applied >= 1
        assert cluster.execute("SELECT SUM(v) FROM t").rows == [(7,)]
        cluster.close()

    def test_dead_shard_without_failover_degrades(self, tmp_path):
        cluster = ClusterDatabase(
            tmp_path / "c", num_shards=2, failover=False, allow_stale=True
        )
        cluster.execute("CREATE TABLE t (id INT, v INT)")
        cluster.execute("INSERT INTO t VALUES (0, 0), (1, 1), (2, 2), (3, 3)")
        cluster.shards[0].kill()
        dead_key = next(
            k for k in range(50) if cluster.pmap.shard_of("t", k) == 0
        )
        with pytest.raises(ShardUnavailableError) as failure:
            cluster.execute(f"INSERT INTO t VALUES ({dead_key}, 9)")
        assert failure.value.shard == 0
        stale = cluster.execute("SELECT id FROM t ORDER BY id")
        assert stale.stale
        assert stale.rows == [(0,), (1,), (2,), (3,)]
        cluster.close()

    def test_dead_shard_without_stale_reads_fails_typed(self, tmp_path):
        cluster = ClusterDatabase(
            tmp_path / "c", num_shards=2, failover=False, allow_stale=False
        )
        cluster.execute("CREATE TABLE t (id INT, v INT)")
        cluster.shards[1].kill()
        with pytest.raises(ShardUnavailableError):
            cluster.execute("SELECT COUNT(*) FROM t")
        cluster.close()


# -- exactly-once across coordinator restarts --------------------------------
class TestPrepareRecovery:
    def two_shard_keys(self, cluster):
        """Two INT keys that land on different shards."""
        first = cluster.pmap.shard_of("t", 0)
        for candidate in range(1, 50):
            if cluster.pmap.shard_of("t", candidate) != first:
                return 0, candidate
        raise AssertionError("no key found for the second shard")

    def test_indoubt_prepare_rolls_forward(self, tmp_path):
        cluster = ClusterDatabase(tmp_path / "c", num_shards=2)
        cluster.execute("CREATE TABLE t (id INT, v INT)")
        key_a, key_b = self.two_shard_keys(cluster)
        shard_a = cluster.pmap.shard_of("t", key_a)
        shard_b = cluster.pmap.shard_of("t", key_b)
        tag_a, tag_b = f"e1.900.s{shard_a}", f"e1.901.s{shard_b}"
        # the crash left shard A committed but shard B untouched, with
        # the prepare (= commit decision) durable and no done record
        cluster.shards[shard_a].execute(
            f"INSERT INTO t VALUES ({key_a}, 1)", tag=tag_a
        )
        cluster.coordinator_log.append(
            {
                "t": "prepare",
                "xid": "x1.999",
                "shards": {
                    str(shard_a): [[tag_a, f"INSERT INTO t VALUES ({key_a}, 1)"]],
                    str(shard_b): [[tag_b, f"INSERT INTO t VALUES ({key_b}, 2)"]],
                },
            },
            sync=True,
        )
        cluster.close()
        recovered = ClusterDatabase(tmp_path / "c", num_shards=2)
        rows = recovered.execute("SELECT id, v FROM t ORDER BY id").rows
        assert rows == [(key_a, 1), (key_b, 2)]  # rolled forward, once
        assert recovered.shards[shard_a].has_applied(tag_a)
        assert recovered.shards[shard_b].has_applied(tag_b)
        recovered.close()
        # a second reopen must not re-apply anything
        again = ClusterDatabase(tmp_path / "c", num_shards=2)
        assert again.execute("SELECT COUNT(*) FROM t").rows == [(2,)]
        again.close()

    def test_unacknowledged_prepare_is_presumed_aborted(self, tmp_path):
        cluster = ClusterDatabase(tmp_path / "c", num_shards=2)
        cluster.execute("CREATE TABLE t (id INT, v INT)")
        cluster.coordinator_log.append(
            {
                "t": "prepare",
                "xid": "x1.998",
                "shards": {"0": [["e1.800.s0", "INSERT INTO t VALUES (1, 1)"]]},
            },
            sync=True,
        )
        cluster.close()
        recovered = ClusterDatabase(tmp_path / "c", num_shards=2)
        assert recovered.execute("SELECT COUNT(*) FROM t").rows == [(0,)]
        recovered.close()


# -- the cluster crash matrix ------------------------------------------------
class TestClusterCrashMatrix:
    def test_whole_cluster_matrix_passes(self, tmp_path):
        report = run_cluster_crash_matrix(
            tmp_path, seeds=(0,), num_statements=14, num_shards=2
        )
        assert report.trials, "no crash points were discovered"
        assert report.all_ok, "\n".join(report.render())
        names = set(report.points)
        assert any(name.startswith("ship-") for name in names)
        assert any(name.startswith("wal-") for name in names)
        assert any("role" in name for name in names)

    def test_failover_matrix_covers_promotion(self, tmp_path):
        report = run_cluster_failover_matrix(
            tmp_path, seed=0, num_statements=14, num_shards=2
        )
        assert report.all_ok, "\n".join(report.render())
        double = [t for t in report.trials if t.trigger_point]
        assert double, "no double-crash promotion trials ran"
        assert any(t.point.startswith("promote-") for t in double)
        line = double[0].repro_line()
        assert "run_cluster_crash_trial" in line
        assert "trigger_point=" in line

    def test_run_crash_matrix_delegates_to_cluster_topology(self, tmp_path):
        report = run_crash_matrix(
            tmp_path, seeds=(0,), num_statements=12, topology="cluster"
        )
        assert report.all_ok, "\n".join(report.render())
        assert all(t.topology == "cluster" for t in report.trials)

    def test_single_trial_reports_topology_and_repro(self, tmp_path):
        workload = random_dml_workload(0, num_statements=12)
        trial = run_cluster_crash_trial(
            tmp_path / "t", workload, "wal-after-fsync", 1,
            seed=0, num_statements=12,
        )
        assert trial.ok
        assert trial.topology == "cluster"
        assert "run_cluster_crash_trial" in trial.repro_line()
        assert "seed=0" in trial.repro_line()


# -- text2sql scored against the cluster engine ------------------------------
class TestText2SQLOnCluster:
    def test_verdicts_match_single_node(self, tmp_path):
        from repro.text2sql.evaluate import evaluate_translator
        from repro.text2sql.workload import generate_workload

        workload = generate_workload(seed=0, num_rows=24)
        examples = workload.examples[:12]
        gold = {e.question: e.sql for e in examples}

        def translate(question):
            # perfect on even examples, broken SQL on odd ones, so both
            # verdict kinds are exercised
            answer = gold[question]
            if list(gold).index(question) % 3 == 2:
                return "SELECT missing_column FROM nowhere"
            return answer

        baseline = evaluate_translator(translate, workload, examples)
        cluster = ClusterDatabase.from_database(
            workload.db, tmp_path / "cluster", num_shards=2
        )
        sharded = evaluate_translator(
            translate, workload, examples, engine=cluster
        )
        cluster.close()
        assert sharded.total == baseline.total
        assert sharded.correct == baseline.correct
        assert sharded.valid_sql == baseline.valid_sql
        assert sharded.static_valid == baseline.static_valid
        assert sharded.by_hardness == baseline.by_hardness
