"""Tests for the NeuralDB subsystem."""

import pytest

from repro.errors import NeuralDBError
from repro.neuraldb import (
    EmbeddingRetriever,
    LexicalRetriever,
    NeuralDatabase,
    evaluate_neuraldb,
    generate_fact_world,
    train_reader,
)
from repro.neuraldb.facts import contrastive_pairs, training_qa_pairs
from repro.neuraldb.retriever import DENSE_CUTOFF


@pytest.fixture(scope="module")
def world():
    return generate_fact_world(num_people=10, seed=42)


@pytest.fixture(scope="module")
def reader():
    return train_reader(training_qa_pairs(seed=0, num_worlds=4), steps=200, seed=0)


@pytest.fixture(scope="module")
def lexical_db(world, reader):
    return NeuralDatabase(LexicalRetriever(world.facts), reader)


class TestFactWorld:
    def test_every_relation_has_a_fact(self, world):
        assert len(world.facts) == len(world.works_in) + len(world.located_in)

    def test_ground_truth_helpers(self, world):
        person = world.people[0]
        dept = world.works_in[person]
        assert world.building_of_person(person) == world.located_in[dept]
        total = sum(world.count_in_department(d) for d in world.departments)
        assert total == len(world.works_in)

    def test_deterministic(self):
        a = generate_fact_world(seed=7)
        b = generate_fact_world(seed=7)
        assert a.facts == b.facts

    def test_training_pairs_cover_generic_phrasing(self):
        triples = training_qa_pairs(seed=0, num_worlds=1)
        questions = {q for _, q, _ in triples}
        assert "where does this person work ?" in questions


class TestRetrievers:
    def test_lexical_finds_person_fact(self, world):
        retriever = LexicalRetriever(world.facts)
        person = world.people[0]
        hits = retriever.retrieve(f"where does {person} work ?", top_k=1)
        assert person in hits[0][0]

    def test_lexical_scores_sorted(self, world):
        retriever = LexicalRetriever(world.facts)
        hits = retriever.retrieve("where is engineering located ?", top_k=5)
        scores = [s for _, s in hits]
        assert scores == sorted(scores, reverse=True)

    def test_empty_facts_raise(self):
        with pytest.raises(NeuralDBError):
            LexicalRetriever([])
        with pytest.raises(NeuralDBError):
            EmbeddingRetriever([])

    def test_contrastive_training_improves_retrieval(self, world):
        untrained = EmbeddingRetriever(world.facts, pretrain_steps=30, seed=0)

        def hit_rate(retriever):
            hits = 0
            for person in world.people:
                top = retriever.retrieve(f"where does {person} work ?", top_k=1)
                hits += int(person in top[0][0])
            return hits / len(world.people)

        before = hit_rate(untrained)
        untrained.train_contrastive(contrastive_pairs(seed=0, num_worlds=4), steps=100, seed=0)
        after = hit_rate(untrained)
        assert after > before
        assert after >= 0.8

    def test_contrastive_empty_raises(self, world):
        retriever = EmbeddingRetriever(world.facts, pretrain_steps=5, seed=0)
        with pytest.raises(NeuralDBError):
            retriever.train_contrastive([])


class TestReader:
    def test_reads_department_from_fact(self, reader, world):
        person = world.people[0]
        dept = world.works_in[person]
        fact = next(f for f in world.facts if person in f)
        assert reader.read(fact, f"where does {person} work ?") == dept

    def test_empty_training_raises(self):
        with pytest.raises(NeuralDBError):
            train_reader([], steps=1)


class TestFactMutations:
    def test_added_fact_becomes_retrievable(self, reader, world):
        db = NeuralDatabase(LexicalRetriever(list(world.facts)), reader)
        db.add_fact("zoe works in engineering .")
        outcome = db.lookup("where does zoe work ?")
        assert "zoe" in outcome.supporting_facts[0]

    def test_removed_fact_is_gone(self, reader, world):
        db = NeuralDatabase(LexicalRetriever(list(world.facts)), reader)
        victim = world.facts[0]
        db.remove_fact(victim)
        assert victim not in db.facts

    def test_remove_unknown_fact_raises(self, reader, world):
        db = NeuralDatabase(LexicalRetriever(list(world.facts)), reader)
        with pytest.raises(NeuralDBError):
            db.remove_fact("this fact was never stored .")

    def test_add_empty_fact_raises(self, reader, world):
        db = NeuralDatabase(LexicalRetriever(list(world.facts)), reader)
        with pytest.raises(NeuralDBError):
            db.add_fact("   ")

    def test_count_sees_added_fact(self, reader, world):
        db = NeuralDatabase(LexicalRetriever(list(world.facts)), reader)
        dept = world.departments[0]
        before = db.count_department(dept).answer
        db.add_fact(f"zoe works in {dept} .")
        after = db.count_department(dept).answer
        assert after == before + 1


class TestNeuralDatabase:
    def test_lookup_returns_provenance(self, lexical_db, world):
        person = world.people[0]
        outcome = lexical_db.lookup(f"where does {person} work ?")
        assert outcome.supporting_facts
        assert str(outcome.answer) in world.departments or outcome.answer

    def test_lookup_accuracy_high(self, lexical_db, world):
        report = evaluate_neuraldb(lexical_db, world)
        assert report.lookup_accuracy >= 0.8

    def test_count_matches_ground_truth(self, lexical_db, world):
        report = evaluate_neuraldb(lexical_db, world)
        assert report.count_accuracy >= 0.75

    def test_join_composes_two_lookups(self, lexical_db, world):
        person = world.people[0]
        outcome = lexical_db.join_lookup(person)
        assert len(outcome.supporting_facts) == 2

    def test_overall_report(self, lexical_db, world):
        report = evaluate_neuraldb(lexical_db, world)
        assert 0.0 <= report.overall() <= 1.0
        assert report.overall() > 0.6


class TestInvertedIndex:
    def make(self, texts):
        from repro.neuraldb import InvertedIndex

        index = InvertedIndex()
        for doc_id, text in enumerate(texts):
            index.add(doc_id, text)
        return index

    def test_candidates_ranked_by_idf_overlap(self):
        index = self.make(
            [
                "alice works in engineering .",
                "bob works in sales .",
                "engineering is located in the tower .",
            ]
        )
        candidates = index.candidates("where does alice work ?")
        # "alice" appears in one doc; that doc must rank first.
        assert candidates[0] == 0

    def test_common_tokens_are_stopworded(self):
        texts = [f"person{i} works in engineering ." for i in range(10)]
        texts.append("zoe sits in the annex .")
        index = self.make(texts)
        # "works" matches 10/11 docs (> MAX_DF_FRACTION) and is skipped;
        # only the selective name token proposes candidates.
        assert index.candidates("where does person3 works ?") == [3]

    def test_all_stopword_query_falls_back_to_matches(self):
        texts = [f"person{i} works in engineering ." for i in range(10)]
        index = self.make(texts)
        # Every query token is ubiquitous — keep them anyway rather
        # than returning no candidates.
        assert len(index.candidates("works in engineering")) == 10

    def test_no_match_returns_empty(self):
        index = self.make(["alice works in engineering ."])
        assert index.candidates("xyzzy ?") == []

    def test_remove_drops_postings(self):
        index = self.make(["alice works here .", "bob works here ."])
        index.remove(0)
        assert len(index) == 1
        assert index.candidates("alice") == []
        assert index.candidates("bob") == [1]

    def test_add_duplicate_id_and_remove_missing_raise(self):
        index = self.make(["alice works here ."])
        with pytest.raises(NeuralDBError):
            index.add(0, "again")
        with pytest.raises(NeuralDBError):
            index.remove(5)

    def test_limit_truncates_after_ranking(self):
        index = self.make(
            ["alice and bob .", "alice alone .", "carol alone ."]
        )
        candidates = index.candidates("alice bob", limit=1)
        assert candidates == [0]


class TestIncrementalEmbeddingIndex:
    @pytest.fixture(scope="class")
    def retriever(self, request):
        world = generate_fact_world(num_people=10, seed=42)
        return EmbeddingRetriever(world.facts, pretrain_steps=30, seed=0)

    def test_add_fact_embeds_exactly_one_text(self, retriever):
        before = retriever.stats.embedded_texts
        retriever.add_fact("zoe works in engineering .")
        assert retriever.stats.embedded_texts == before + 1
        hits = retriever.retrieve("where does zoe work ?", top_k=3, mode="two_stage")
        assert any("zoe" in fact for fact, _ in hits)

    def test_remove_fact_embeds_nothing(self, retriever):
        retriever.add_fact("yuri works in sales .")
        before = retriever.stats.embedded_texts
        retriever.remove_fact("yuri works in sales .")
        assert retriever.stats.embedded_texts == before
        assert "yuri works in sales ." not in retriever.facts

    def test_tombstoned_fact_never_retrieved(self, retriever):
        retriever.add_fact("xena works in finance .")
        retriever.remove_fact("xena works in finance .")
        hits = retriever.retrieve("where does xena work ?", top_k=len(retriever.facts))
        assert all("xena" not in fact for fact, _ in hits)

    def test_duplicate_fact_removed_one_copy_at_a_time(self, retriever):
        retriever.add_fact("twin works in sales .")
        retriever.add_fact("twin works in sales .")
        retriever.remove_fact("twin works in sales .")
        assert retriever.facts.count("twin works in sales .") == 1
        hits = retriever.retrieve("where does twin work ?", top_k=3, mode="two_stage")
        assert any("twin" in fact for fact, _ in hits)
        retriever.remove_fact("twin works in sales .")
        assert "twin works in sales ." not in retriever.facts

    def test_remove_unknown_raises(self, retriever):
        with pytest.raises(NeuralDBError):
            retriever.remove_fact("never stored .")

    def test_two_stage_ranks_candidates_like_dense(self, retriever):
        # Two-stage is dense scoring restricted to the candidate set:
        # its results must be dense's ranking filtered to candidates.
        query = "where does alice work ?"
        candidates = {
            retriever._row_fact[row]
            for row in retriever._iindex.candidates(query)
        }
        dense = retriever.retrieve(query, top_k=len(retriever.facts), mode="dense")
        expected = [fact for fact, _ in dense if fact in candidates]
        two_stage = retriever.retrieve(
            query, top_k=len(retriever.facts), mode="two_stage"
        )
        assert [fact for fact, _ in two_stage] == expected
        assert any("alice" in fact for fact, _ in two_stage[:1])

    def test_two_stage_scores_fewer_facts(self, retriever):
        start = retriever.stats.facts_scored
        retriever.retrieve("where does alice work ?", mode="dense")
        dense_work = retriever.stats.facts_scored - start
        start = retriever.stats.facts_scored
        retriever.retrieve("where does alice work ?", mode="two_stage")
        two_stage_work = retriever.stats.facts_scored - start
        assert two_stage_work < dense_work

    def test_unmatched_query_falls_back_to_dense(self, retriever):
        before = retriever.stats.dense_fallbacks
        hits = retriever.retrieve("xyzzy plugh ?", top_k=2, mode="two_stage")
        assert retriever.stats.dense_fallbacks == before + 1
        assert len(hits) == 2

    def test_auto_mode_picks_by_corpus_size(self, retriever):
        assert len(retriever.facts) <= DENSE_CUTOFF
        before = retriever.stats.dense_queries
        retriever.retrieve("where does alice work ?", mode="auto")
        assert retriever.stats.dense_queries == before + 1

    def test_unknown_mode_raises(self, retriever):
        with pytest.raises(NeuralDBError):
            retriever.retrieve("anything", mode="fuzzy")


class TestEmbedFallbacks:
    def test_all_unk_row_falls_back_to_full_mask(self):
        world = generate_fact_world(num_people=6, seed=3)
        retriever = EmbeddingRetriever(world.facts, pretrain_steps=5, seed=0)
        # Every token out-of-vocabulary: the informative mask would be
        # all-zero, so pooling must fall back to the attention mask
        # instead of dividing by zero.
        import numpy as np

        vectors = retriever._embed(["xyzzy plugh qwop"])
        assert np.all(np.isfinite(vectors))
        assert np.linalg.norm(vectors[0]) == pytest.approx(1.0)

    def test_blocked_embedding_matches_single_batch(self):
        world = generate_fact_world(num_people=10, seed=3)
        blocked = EmbeddingRetriever(
            world.facts, pretrain_steps=5, seed=0, embed_block=4
        )
        whole = EmbeddingRetriever(
            world.facts, pretrain_steps=5, seed=0, embed_block=4096
        )
        import numpy as np

        a = blocked._embed(world.facts)
        b = whole._embed(world.facts)
        assert np.allclose(a, b, atol=1e-10)


class TestBatchedReader:
    def test_read_batch_matches_sequential_read(self, reader, world):
        items = [
            (fact, "where does this person work ?")
            for fact in world.facts
            if "located" not in fact and "sits" not in fact
        ]
        sequential = [reader.read(f, q) for f, q in items]
        batched = reader.read_batch(items)
        assert batched == sequential

    def test_read_batch_empty(self, reader):
        assert reader.read_batch([]) == []

    def test_lookup_batch_matches_lookups(self, lexical_db, world):
        questions = [f"where does {p} work ?" for p in world.people[:4]]
        batched = lexical_db.lookup_batch(questions)
        singles = [lexical_db.lookup(q) for q in questions]
        assert [o.answer for o in batched] == [o.answer for o in singles]
        assert [o.supporting_facts for o in batched] == [
            o.supporting_facts for o in singles
        ]

    def test_join_lookup_batch_matches_joins(self, lexical_db, world):
        persons = world.people[:3]
        batched = lexical_db.join_lookup_batch(persons)
        singles = [lexical_db.join_lookup(p) for p in persons]
        assert [o.answer for o in batched] == [o.answer for o in singles]


class TestScaledFactWorld:
    def test_scaled_world_has_synthetic_entities(self):
        world = generate_fact_world(
            num_people=40, seed=1, num_departments=10, num_buildings=6
        )
        assert len(world.located_in) == 10
        assert any(d.startswith("dept") for d in world.departments)
        assert len(world.facts) == 40 + 10

    def test_default_world_unchanged_by_scale_params(self):
        a = generate_fact_world(num_people=12, seed=9)
        b = generate_fact_world(
            num_people=12, seed=9, num_departments=4, num_buildings=4
        )
        assert a.facts == b.facts
        assert a.located_in == b.located_in

    def test_invalid_dimensions_raise(self):
        with pytest.raises(ValueError):
            generate_fact_world(num_people=0)
        with pytest.raises(ValueError):
            generate_fact_world(num_departments=0)
