"""Unit tests for workload generation (paper scenario + synthetic)."""

import hashlib
import random

import pytest

from repro.errors import QueryError
from repro.workloads import (
    WorkloadSpec,
    chain_workload,
    clique_workload,
    figure1_query,
    paper_catalog,
    paper_database,
    star_workload,
    synthesize,
)
from repro.workloads.generator import _below
from repro.workloads.paper import with_proj


class TestPaperWorkload:
    def test_catalog_shape(self):
        cat = paper_catalog()
        assert cat.table("DEPT").column_names == ("DNO", "MGR", "BUDGET")
        assert [p.name for p in cat.paths_for("EMP")] == ["EMP_DNO"]

    def test_distributed_placement(self):
        cat = paper_catalog(distributed=True)
        assert cat.table("DEPT").site == "N.Y."
        assert cat.table("EMP").site == "L.A."
        assert cat.query_site == "L.A."

    def test_data_deterministic(self):
        cat1, cat2 = paper_catalog(), paper_catalog()
        db1, db2 = paper_database(cat1), paper_database(cat2)
        rows1 = [r for _, r in db1.table("EMP").scan()]
        rows2 = [r for _, r in db2.table("EMP").scan()]
        assert rows1 == rows2

    def test_stats_collected(self, paper_db):
        cat, db = paper_db
        assert cat.table_stats("EMP").card == 2000
        assert cat.column_stats("EMP", "DNO").n_distinct == 50

    def test_haas_rows_exist(self, paper_db):
        cat, db = paper_db
        mgr_pos = db.table("DEPT").position(
            __import__("repro.query.expressions", fromlist=["ColumnRef"]).ColumnRef("DEPT", "MGR")
        )
        managers = {row[mgr_pos] for _, row in db.table("DEPT").scan()}
        assert "Haas" in managers

    def test_figure1_query_parses(self):
        cat = paper_catalog()
        q = figure1_query(cat)
        assert q.table_set == {"DEPT", "EMP"}

    def test_with_proj_extends(self):
        cat = paper_catalog()
        db = paper_database(cat)
        with_proj(cat, db, proj_rows=100)
        assert cat.table_stats("PROJ").card == 100


class TestSyntheticWorkloads:
    def test_chain_shape(self):
        wl = chain_workload(3, rows=50, seed=1)
        assert wl.query.table_set == {"R0", "R1", "R2"}
        assert len(wl.query.multi_table_predicates()) == 2
        assert wl.query.join_graph_edges() == {
            frozenset({"R0", "R1"}),
            frozenset({"R1", "R2"}),
        }

    def test_star_shape(self):
        wl = star_workload(4, rows=50, seed=1)
        edges = wl.query.join_graph_edges()
        assert all("R0" in edge for edge in edges)
        # The fact table is larger than dimensions.
        assert len(wl.database.table("R0")) == 200

    def test_clique_shape(self):
        wl = clique_workload(3, rows=30, seed=1)
        assert len(wl.query.join_graph_edges()) == 3

    def test_selection_knob(self):
        with_sel = chain_workload(2, rows=50, seed=1, selection=0.2)
        assert len(with_sel.query.single_table_predicates("R0")) == 1
        without = chain_workload(2, rows=50, seed=1)
        assert len(without.query.single_table_predicates("R0")) == 0

    def test_sites_assigned_round_robin(self):
        wl = chain_workload(4, rows=20, seed=1, n_sites=2)
        sites = {wl.catalog.table(t).site for t in wl.query.tables}
        assert sites == {"S0", "S1"}

    def test_index_fraction_zero(self):
        wl = chain_workload(3, rows=20, seed=1, index_fraction=0.0)
        assert all(not wl.catalog.paths_for(t) for t in wl.query.tables)

    def test_determinism(self):
        a = chain_workload(3, rows=40, seed=9)
        b = chain_workload(3, rows=40, seed=9)
        rows_a = [r for _, r in a.database.table("R1").scan()]
        rows_b = [r for _, r in b.database.table("R1").scan()]
        assert rows_a == rows_b

    def test_stats_analyzed(self):
        wl = chain_workload(2, rows=60, seed=2)
        assert wl.catalog.table_stats("R0").card == 60

    def test_unknown_shape_rejected(self):
        with pytest.raises(QueryError):
            WorkloadSpec(shape="lattice")

    def test_synthesize_names(self):
        wl = synthesize(WorkloadSpec(shape="star", n_tables=3, rows=10))
        assert wl.name == "star-3x10"


#: Every table spec of the ``benchmarks/e2e`` workloads at seeds 11 and
#: 23 — (shape, n_tables, rows, index_fraction, n_sites, seed) — and the
#: SHA-256 of its rows and statistics (``_synthesized_sha256``), recorded
#: when rows were still written one at a time.
E2E_SPECS = [
    ('chain', 5, 100, 1.0, 1, 11000, "e8f18b0b367a9f308c096864cd211db01d45d6ba08e463c865b84ac68e27f482"),
    ('chain', 6, 100, 1.0, 1, 11001, "e71f7fcbdbdd29f595cc2df8b04ed0c11af58798481caccb78130b466cae1b91"),
    ('star', 5, 100, 1.0, 1, 11002, "ee0c985893fe5e4af9cfc96b0050227cab8ced9b120e2cb2e2e51a0460558bcd"),
    ('star', 6, 100, 1.0, 1, 11003, "629c23042a0643d1e37119e2258e109ea46a7793b1f1c2e92a926decf1195e3e"),
    ('clique', 4, 100, 1.0, 1, 11004, "62e0aaa1a1aa7eafc6c050580bc5f8f1347e16523b1ef2c2a331bbd68cabfbdf"),
    ('clique', 5, 100, 1.0, 1, 11005, "28a5c920357e92a735226ce9625662b4da2814d79f27591e2c1959f8e6f37eb5"),
    ('chain', 5, 100, 1.0, 2, 11006, "00958826e4d8a0a5c41bbe417bc5c9ed4545fbb6801e25dfa6187185d05f5017"),
    ('chain', 5, 100, 1.0, 1, 23000, "aa6031e73c45a0282ec564ca066102ccec0e3ba68aacdb7ae240ccf6ffca3fc8"),
    ('chain', 6, 100, 1.0, 1, 23001, "325b65a61b2c49a9173494cfa17b39b9cce7aabad8081efc96611b051117e79c"),
    ('star', 5, 100, 1.0, 1, 23002, "105180a5b980b9a61ba0945f62146e5f6791946dbbf9ad5ff322e51ca1cdde74"),
    ('star', 6, 100, 1.0, 1, 23003, "827b469fadd9749851b1e273d3070784ce7f84770e3deea9ed4d5183810a0397"),
    ('clique', 4, 100, 1.0, 1, 23004, "f24b71e84c9c801d3b4159221edc875aa97b55305d6ccf00acaa3ea6e871d05c"),
    ('clique', 5, 100, 1.0, 1, 23005, "56cdb1a2fb76d8699d2a0218840be4856f90ddf7512b0a3a028780f1c4408629"),
    ('chain', 5, 100, 1.0, 2, 23006, "2cc9d352e9bed2278e2a02a74664a37549364303f7df7e3d88c884d2bbc7ac22"),
    ('chain', 3, 30000, 0.0, 1, 11000, "0bc35fd84eada1a657fccc63015fbbec346681637d78ddafde68d5b31f581f98"),
    ('star', 3, 8000, 0.0, 1, 11001, "65cc16a76660d41de209620bb19ca5ac75a6812220baa97d8a3a6bcd6a0101b0"),
    ('chain', 2, 40000, 0.0, 1, 11002, "48c2e3c2fca5b321e9ac58da50890dc6089b2ff2b911fb6f2800330bafc5656a"),
    ('chain', 3, 30000, 0.0, 1, 23000, "efb8817adef2b1073bca9720b2f9d9215f40ee7e8c3c175d6461288fe642d4c4"),
    ('star', 3, 8000, 0.0, 1, 23001, "fa70ed98beb25b38aa3cb3dadd0822d2c23b4a59328d81ee4ecb6a204d5ab539"),
    ('chain', 2, 40000, 0.0, 1, 23002, "f8b06021be6b61d511abc99b21efcb3885878a5b41721e272e627d598ccd5347"),
    ('chain', 3, 8000, 1.0, 1, 11000, "6eebb6424e0b19fdeee046af9db57fefb10a320a2d2349cb87435bc1e1b1fc81"),
    ('star', 3, 2000, 1.0, 1, 11001, "6fea2d5550a1c65bf3ed05cd6cf030151502a5c0988546dff15a19fa3f2e332c"),
    ('chain', 2, 10000, 1.0, 1, 11002, "06e0d59276b605740fa1930020f58d309aca1e950962f303d5d8b476aefa0f92"),
    ('chain', 3, 8000, 1.0, 1, 23000, "ded4b66661acdfc6f734c8a8cee0021c6b041503ef8312c4c04092ede5eedeb2"),
    ('star', 3, 2000, 1.0, 1, 23001, "f5e17911b14883344e90a9f69eb49fa35522082e61f81eeed1403b4a5ed5a58f"),
    ('chain', 2, 10000, 1.0, 1, 23002, "ba90379de97c0de1eee7cec3ee4c2987047cec1eac08adcf205f84a57b336173"),
    ('chain', 4, 200, 1.0, 1, 11000, "b9f9850838e56cdbc0c6590638b146578d31ded1adcaabdc99c0baffa0c1dde1"),
    ('chain', 4, 200, 1.0, 1, 23000, "fef493cd0c10fb5fb832dd40c31285f7e6920162d897a556f922bd77f6032e24"),
]


def _synthesized_sha256(spec: WorkloadSpec) -> str:
    built = synthesize(spec)
    digest = hashlib.sha256()
    for name in built.database.base_table_names():
        digest.update(name.encode())
        for _, row in built.database.table(name).scan():
            digest.update(repr(row).encode())
        digest.update(repr(built.catalog.table_stats(name)).encode())
        for column in built.catalog.table(name).column_names:
            digest.update(repr(built.catalog.column_stats(name, column)).encode())
    return digest.hexdigest()


@pytest.mark.parametrize(
    "shape,n_tables,rows,index_fraction,n_sites,seed,sha256", E2E_SPECS,
    ids=[f"{s[0]}{s[1]}x{s[2]}-i{s[3]:g}-s{s[4]}-{s[5]}" for s in E2E_SPECS],
)
def test_e2e_rows_and_stats_are_pinned(
    shape, n_tables, rows, index_fraction, n_sites, seed, sha256
):
    spec = WorkloadSpec(shape=shape, n_tables=n_tables, rows=rows,
                        index_fraction=index_fraction, n_sites=n_sites, seed=seed)
    assert _synthesized_sha256(spec) == sha256


@pytest.mark.parametrize("n", [1, 2, 3, 63, 64, 65, 100, 8000])
@pytest.mark.parametrize("seed", [0, 11, 23, 1000])
def test_rows_draw_values_as_randrange_does(n, seed):
    """``_below`` gives ``randrange``'s values and leaves the generator
    where ``randrange`` leaves it, so every row the generator writes (and
    every later draw) is what ``randrange`` per value wrote."""
    drawn, reference = random.Random(seed), random.Random(seed)
    k = n.bit_length()
    assert [_below(drawn.getrandbits, n, k) for _ in range(500)] == [
        reference.randrange(n) for _ in range(500)
    ]
    assert drawn.getstate() == reference.getstate()
