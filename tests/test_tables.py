"""Integration tests: the Table I–VI harnesses produce the paper's shapes.

Kept cheap (1–3 queries). The recorded runs use each ``tableN``'s
defaults: ``jobs/tables.py`` prints them, ``benchmarks/test_bench_tables.py``
times them into ``benchmarks/tables_output.txt``, and EXPERIMENTS.md
discusses them.
"""
import numpy as np
import pytest

from repro.experiments import (
    format_rows,
    pick_queries,
    prepare,
    relative_error,
    table1,
    table2,
    table3,
    table4,
    table5,
    table6,
)


class TestHarness:
    def test_prepare_homogeneous(self):
        prep = prepare("facebook")
        assert prep.gamma == 0.5
        assert prep.graph is prep.gen.graph

    def test_prepare_hetero_projects(self):
        prep = prepare("dblp")
        assert prep.graph is not prep.gen.graph
        assert set(prep.graph.adj) == {
            v for v, t in prep.gen.graph.ntypes.items()
            if t == prep.gen.target_type
        }

    def test_prepare_numerical_only_gamma(self):
        assert prepare("dbpedia").gamma == 0.0

    def test_pick_queries_deterministic(self):
        prep = prepare("facebook")
        assert pick_queries(prep, 5, 4, 0) == pick_queries(prep, 5, 4, 0)

    def test_pick_queries_are_members(self):
        prep = prepare("facebook")
        for q in pick_queries(prep, 5, 4, 0):
            assert q in prep.gen.communities

    def test_relative_error(self):
        assert relative_error(0.11, 0.10) == pytest.approx(0.1)
        assert relative_error(None, 0.1) is None
        assert relative_error(0.1, None) is None


class TestTable1:
    @pytest.fixture(scope="class")
    def t1(self):
        return table1()

    def test_ten_rows(self, t1):
        rows, _ = t1
        assert len(rows) == 10

    def test_homogeneous_single_type(self, t1):
        rows, _ = t1
        for r in rows[:5]:
            assert r["#N-types"] == 1 and r["#E-types"] == 1

    def test_hetero_multiple_types(self, t1):
        rows, _ = t1
        for r in rows[5:]:
            assert r["#N-types"] > 1

    def test_density_ordering(self, t1):
        rows, _ = t1
        by = {r["Dataset"]: r for r in rows}
        assert by["twitch"]["d_avg"] > by["github"]["d_avg"]

    def test_coreness_consistent(self, t1):
        rows, _ = t1
        for r in rows:
            assert 0 < r["k_avg"] <= r["k_max"] <= r["d_max"]

    def test_format(self, t1):
        rows, _ = t1
        out = format_rows(rows)
        assert "facebook" in out and "k_max" in out


class TestTable2:
    @pytest.fixture(scope="class")
    def t2(self):
        return table2(n_queries=3, seed=3)

    def test_six_methods(self, t2):
        rows, _ = t2
        assert [r["Method"] for r in rows] == [
            "SEA (Ours)", "LocATC-Core", "ACQ-Core", "VAC-Core",
            "Exact (Ours)", "E-VAC-Core",
        ]

    def test_exact_best_on_delta(self, t2):
        rows, _ = t2
        by = {r["Method"]: r for r in rows}
        assert by["Exact (Ours)"]["rank4"] == 1

    def test_each_method_leads_its_metric(self, t2):
        """The paper's observation: every method wins its own metric."""
        rows, _ = t2
        by = {r["Method"]: r for r in rows}
        assert by["LocATC-Core"]["rank2"] == 1
        assert by["ACQ-Core"]["rank3"] == 1
        assert by["E-VAC-Core"]["rank1"] == 1

    def test_total_rank_is_sum(self, t2):
        rows, _ = t2
        for r in rows:
            assert r["Total rank"] == sum(
                r[f"rank{i}"] for i in range(1, 5)
            )

    def test_sea_near_exact_delta(self, t2):
        rows, _ = t2
        by = {r["Method"]: r for r in rows}
        rel = (by["SEA (Ours)"]["delta (Ours)"] - by["Exact (Ours)"]["delta (Ours)"]) / by[
            "Exact (Ours)"
        ]["delta (Ours)"]
        assert 0 <= rel < 0.25


class TestTable3:
    @pytest.fixture(scope="class")
    def t3(self):
        return table3(n_queries=2, seed=3)

    def test_availability_mask(self, t3):
        rows, _ = t3
        by = {r["Method"]: r for r in rows}
        assert by["Exact (Ours)"]["orkut"] is None
        assert by["E-VAC-Core"]["livejournal"] is None
        assert by["SEA (Ours)"]["orkut"] is not None

    def test_sea_beats_acq(self, t3):
        """The paper's ordering: equality-matching ACQ trails SEA."""
        rows, _ = t3
        by = {r["Method"]: r for r in rows}
        sea = np.mean([v for k, v in by["SEA (Ours)"].items() if k != "Method"])
        acq = np.mean([v for k, v in by["ACQ-Core"].items() if k != "Method"])
        assert sea > acq

    def test_scores_are_f1(self, t3):
        rows, _ = t3
        for r in rows:
            for k, v in r.items():
                if k != "Method" and v is not None:
                    assert 0.0 <= v <= 1.0


class TestTable4:
    @pytest.fixture(scope="class")
    def t4(self):
        return table4(k=4, n_queries=1, cap=20_000, seed=1)

    def test_four_datasets(self, t4):
        rows, _ = t4
        assert [r["Dataset"] for r in rows] == [
            "facebook", "github", "twitch", "livejournal"
        ]

    def test_pruning_reduces_states(self, t4):
        """Full prunings never explore more states than P1 alone."""
        rows, _ = t4
        for r in rows:
            full = int(str(r["Exact #states"]).lstrip(">"))
            p1 = int(str(r["Exact\\P3+P2 #states"]).lstrip(">"))
            assert full <= p1

    def test_without_prunings_capped_or_worst(self, t4):
        rows, _ = t4
        worst = 0
        for r in rows:
            s = str(r["Exact w/o P #states"])
            worst += s.startswith(">") or int(s) >= int(
                str(r["Exact #states"]).lstrip(">")
            )
        assert worst == len(rows)


class TestTable5:
    @pytest.fixture(scope="class")
    def t5(self):
        return table5(n_queries=2, seed=0)

    def test_seven_method_rows(self, t5):
        rows, _ = t5
        assert len(rows) == 7

    def test_acq_dash_on_numeric_only(self, t5):
        rows, _ = t5
        acq = next(r for r in rows if r["Method"] == "ACQ-Core")
        for ds in ("dbpedia", "yago", "freebase"):
            assert acq[f"{ds} Time(ms)"] is None
        assert acq["dblp Time(ms)"] is not None

    def test_sea_error_beats_locatc(self, t5):
        """SEA's error is far below the approximation baselines'."""
        rows, _ = t5
        by = {r["Method"]: r for r in rows}
        for ds in ("dblp", "dbpedia", "yago", "freebase"):
            sea = by["SEA (Ours)"][f"{ds} Err(%)"]
            loc = by["LocATC-Core"][f"{ds} Err(%)"]
            if sea is not None and loc is not None:
                assert sea < loc

    def test_truss_rows_present(self, t5):
        rows, _ = t5
        labels = [r["Method"] for r in rows]
        assert "SEA-Truss" in labels and "VAC-Truss" in labels


class TestTable6:
    @pytest.fixture(scope="class")
    def t6(self):
        return table6()

    def test_rows_per_bound(self, t6):
        rows, _ = t6
        bounds = {r["Size-bound"] for r in rows}
        assert bounds == {"[8,16]", "[12,20]"}

    def test_rounds_numbered(self, t6):
        rows, _ = t6
        for b in ("[8,16]", "[12,20]"):
            rounds = [r["Round"] for r in rows if r["Size-bound"] == b]
            assert rounds == list(range(1, len(rounds) + 1))

    def test_final_error_bounded(self, t6):
        """Last round of each bound lands within ~e (+ CI slack)."""
        rows, meta = t6
        for b in ("[8,16]", "[12,20]"):
            last = [r for r in rows if r["Size-bound"] == b][-1]
            assert last["Err(%)"] is not None
            assert last["Err(%)"] <= meta["e"] * 100 + 5

    def test_gt_recorded(self, t6):
        _, meta = t6
        assert meta["gt_delta"] > 0
