"""Unit and property-based tests for the B+-tree."""

import random
from bisect import bisect_left

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import StorageError
from repro.storage import BTree, IOAccounting


def make_tree(order=4, unique=False):
    return BTree(IOAccounting(), order=order, unique=unique)


class TestBasics:
    def test_insert_and_search(self):
        tree = make_tree()
        tree.insert((5,), "a")
        tree.insert((3,), "b")
        assert tree.search((5,)) == ["a"]
        assert tree.search((3,)) == ["b"]
        assert tree.search((9,)) == []

    def test_len_counts_entries(self):
        tree = make_tree()
        for i in range(10):
            tree.insert((i,), i)
        assert len(tree) == 10

    def test_duplicates_aggregate(self):
        tree = make_tree()
        for i in range(6):
            tree.insert((1,), i)
        assert sorted(tree.search((1,))) == list(range(6))

    def test_unique_rejects_duplicates(self):
        tree = make_tree(unique=True)
        tree.insert((1,), "a")
        with pytest.raises(StorageError, match="duplicate"):
            tree.insert((1,), "b")

    def test_null_key_component_rejected(self):
        tree = make_tree()
        with pytest.raises(StorageError, match="NULL"):
            tree.insert((1, None), "a")

    def test_order_validated(self):
        with pytest.raises(StorageError):
            BTree(IOAccounting(), order=2)

    def test_height_grows(self):
        tree = make_tree(order=3)
        assert tree.height == 1
        for i in range(50):
            tree.insert((i,), i)
        assert tree.height >= 3

    def test_scan_all_sorted(self):
        tree = make_tree(order=4)
        keys = list(range(100))
        random.Random(3).shuffle(keys)
        for key in keys:
            tree.insert((key,), key)
        assert [k for k, _ in tree.scan_all()] == [(i,) for i in range(100)]


class TestRangeScans:
    @pytest.fixture()
    def tree(self):
        tree = make_tree(order=4)
        for i in range(0, 100, 2):  # even keys 0..98
            tree.insert((i,), i)
        return tree

    def test_inclusive_range(self, tree):
        got = [v for _, v in tree.scan_range(lo=(10,), hi=(20,))]
        assert got == [10, 12, 14, 16, 18, 20]

    def test_exclusive_bounds(self, tree):
        got = [
            v
            for _, v in tree.scan_range(
                lo=(10,), hi=(20,), lo_inclusive=False, hi_inclusive=False
            )
        ]
        assert got == [12, 14, 16, 18]

    def test_open_ended_low(self, tree):
        got = [v for _, v in tree.scan_range(hi=(6,))]
        assert got == [0, 2, 4, 6]

    def test_open_ended_high(self, tree):
        got = [v for _, v in tree.scan_range(lo=(94,))]
        assert got == [94, 96, 98]

    def test_absent_bounds_full_scan(self, tree):
        assert len(list(tree.scan_range())) == 50

    def test_bounds_between_keys(self, tree):
        got = [v for _, v in tree.scan_range(lo=(9,), hi=(15,))]
        assert got == [10, 12, 14]

    def test_empty_range(self, tree):
        assert list(tree.scan_range(lo=(13,), hi=(13,))) == []


class TestCompositeKeys:
    def test_prefix_scan(self):
        tree = make_tree(order=4)
        for dno in range(5):
            for name in ("a", "b", "c"):
                tree.insert((dno, name), f"{dno}{name}")
        got = [v for _, v in tree.scan_prefix((2,))]
        assert got == ["2a", "2b", "2c"]

    def test_full_key_search(self):
        tree = make_tree()
        tree.insert((1, "x"), "v1")
        tree.insert((1, "y"), "v2")
        assert tree.search((1, "x")) == ["v1"]

    def test_prefix_ordering_across_leaves(self):
        tree = make_tree(order=3)
        for i in range(40):
            tree.insert((i % 4, i), i)
        got = [v for _, v in tree.scan_prefix((1,))]
        assert got == sorted(got)
        assert all(v % 4 == 1 for v in got)


class TestAccounting:
    def test_reads_charged_on_descend(self):
        io = IOAccounting()
        tree = BTree(io, order=3)
        for i in range(30):
            tree.insert((i,), i)
        before = io.index_reads
        tree.search((17,))
        assert io.index_reads - before >= tree.height

    def test_writes_charged_on_insert(self):
        io = IOAccounting()
        tree = BTree(io, order=3)
        tree.insert((1,), 1)
        assert io.index_writes >= 1


# ---------------------------------------------------------------------------
# Property-based tests
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=-1000, max_value=1000)))
def test_scan_all_matches_sorted_multiset(keys):
    tree = make_tree(order=4)
    for key in keys:
        tree.insert((key,), key)
    got = [v for _, v in tree.scan_all()]
    assert got == sorted(keys)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=200), min_size=1),
    st.integers(min_value=0, max_value=200),
    st.integers(min_value=0, max_value=200),
)
def test_range_scan_matches_filter(keys, a, b):
    lo, hi = min(a, b), max(a, b)
    tree = make_tree(order=5)
    for key in keys:
        tree.insert((key,), key)
    got = [v for _, v in tree.scan_range(lo=(lo,), hi=(hi,))]
    assert got == sorted(k for k in keys if lo <= k <= hi)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 20), st.integers(0, 20)), min_size=1))
def test_composite_prefix_scan_matches_filter(pairs):
    tree = make_tree(order=4)
    for pair in pairs:
        tree.insert(pair, pair)
    prefix = pairs[0][0]
    got = [v for _, v in tree.scan_prefix((prefix,))]
    assert got == sorted(p for p in pairs if p[0] == prefix)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 100), min_size=1), st.integers(3, 16))
def test_search_finds_all_duplicates(keys, order):
    tree = BTree(IOAccounting(), order=order)
    for index, key in enumerate(keys):
        tree.insert((key,), index)
    target = keys[0]
    expected = sorted(i for i, k in enumerate(keys) if k == target)
    assert sorted(tree.search((target,))) == expected


# ---------------------------------------------------------------------------
# Bisecting scans against the linear walk they replaced
# ---------------------------------------------------------------------------


def linear_scan(tree, lo=None, hi=None, lo_inclusive=True, hi_inclusive=True):
    """The reference: walk the first leaf from its first key, comparing
    every key with both bounds, one index read per node visited
    (``scan_range`` as it was before it bisected)."""
    io = tree._io
    node = tree._root
    while not hasattr(node, "values"):  # internal node
        io.read_index(1)
        node = node.children[0 if lo is None else bisect_left(node.keys, lo)]
    io.read_index(1)
    entries = []
    while node is not None:
        for idx, key in enumerate(node.keys):
            if lo is not None:
                cmp = tree._prefix_cmp(key, lo)
                if cmp < 0 or (cmp == 0 and not lo_inclusive):
                    continue
            if hi is not None:
                cmp = tree._prefix_cmp(key, hi)
                if cmp > 0 or (cmp == 0 and not hi_inclusive):
                    return entries
            entries.extend((key, value) for value in node.values[idx])
        node = node.next
        if node is not None:
            io.read_index(1)
    return entries


def charged(tree, scan):
    """(entries, index reads charged) of running ``scan`` to its end."""
    before = tree._io.index_reads
    entries = list(scan())
    return entries, tree._io.index_reads - before


def batch_probe(tree, *prefixes):
    """``lookup_many``'s answer in ``lookup``'s shape: the ``(key,
    value)`` entries of every prefix, in prefix order."""
    counts, keys, values = tree.lookup_many(list(prefixes))
    assert len(counts) == len(prefixes) and sum(counts) == len(keys) == len(values)
    return list(zip(keys, values))


def leaf_edges(tree):
    """First and last key of every leaf: where a match ends exactly at a
    leaf boundary, and where it starts on one."""
    leaf = tree._root
    while not hasattr(leaf, "values"):
        leaf = leaf.children[0]
    edges = []
    while leaf is not None:
        edges += [leaf.keys[0], leaf.keys[-1]]
        leaf = leaf.next
    return edges


class TestBisectMatchesLinearWalk:
    @pytest.fixture(params=range(3, 9), ids=lambda order: f"order{order}")
    def tree(self, request):
        """Even keys 0..118 in a shuffled order, every fourth key three
        times: leaves are small, so boundaries and duplicates are common."""
        tree = make_tree(order=request.param)
        keys = list(range(0, 120, 2))
        random.Random(request.param).shuffle(keys)
        for key in keys:
            for copy in range(3 if key % 8 == 0 else 1):
                tree.insert((key,), (key, copy))
        return tree

    def test_point_lookups_present_and_absent(self, tree):
        assert set(leaf_edges(tree)) <= {(k,) for k in range(0, 120, 2)}
        for key in range(-1, 122):  # odd keys and both ends are absent
            want = charged(tree, lambda: linear_scan(tree, (key,), (key,)))
            assert charged(tree, lambda: tree.scan_prefix((key,))) == want
            assert charged(tree, lambda: tree.lookup((key,))) == want
            assert charged(tree, lambda: batch_probe(tree, (key,))) == want
            values, reads = charged(tree, lambda: tree.search((key,)))
            assert (values, reads) == ([v for _, v in want[0]], want[1])

    def test_leaf_boundary_keys_charge_the_step_to_the_next_leaf(self, tree):
        edges = leaf_edges(tree)
        last_of_a_leaf = edges[1:-1:2]
        assert last_of_a_leaf, "tree too small to have an inner leaf boundary"
        for probe in (tree.lookup, lambda key: batch_probe(tree, key)):
            for key in last_of_a_leaf:
                entries, reads = charged(tree, lambda: probe(key))
                assert entries and reads == tree.height + 1
            entries, reads = charged(tree, lambda: probe(edges[-1]))
            assert entries and reads == tree.height  # no leaf after the last

    @pytest.mark.parametrize("lo_inclusive", [True, False])
    @pytest.mark.parametrize("hi_inclusive", [True, False])
    def test_ranges_with_exclusive_bounds(self, tree, lo_inclusive, hi_inclusive):
        bounds = [None, -3, 0, 7, 8, 16, 57, 58, 118, 121]
        bounds += [key[0] for key in leaf_edges(tree)[:6]]
        for lo in bounds:
            for hi in bounds:
                args = (
                    None if lo is None else (lo,),
                    None if hi is None else (hi,),
                    lo_inclusive,
                    hi_inclusive,
                )
                want = charged(tree, lambda: linear_scan(tree, *args))
                assert charged(tree, lambda: tree.scan_range(*args)) == want, args

    def test_abandoned_scan_stops_charging(self, tree):
        before = tree._io.index_reads
        scan = tree.scan_range(lo=(10,))
        next(scan)
        # The descent, plus at most the step off a leaf that ends below 10.
        assert tree._io.index_reads - before <= tree.height + 1
        _, drained = charged(tree, lambda: tree.scan_range(lo=(10,)))
        assert drained > tree.height + 1


@pytest.mark.parametrize("order", range(3, 9))
def test_composite_prefixes_match_linear_walk(order):
    tree = make_tree(order=order)
    pairs = [(a, b) for a in range(0, 24, 2) for b in range(a % 5 + 1)]
    random.Random(order).shuffle(pairs)
    for pair in pairs:
        tree.insert(pair, pair)
    for a in range(-1, 25):
        want = charged(tree, lambda: linear_scan(tree, (a,), (a,)))
        assert [k for k, _ in want[0]] == sorted(p for p in pairs if p[0] == a)
        assert charged(tree, lambda: tree.lookup((a,))) == want
        assert charged(tree, lambda: batch_probe(tree, (a,))) == want
        assert charged(tree, lambda: tree.scan_prefix((a,))) == want
        # A prefix finds nothing "stored under exactly" it.
        assert charged(tree, lambda: tree.search((a,))) == ([], want[1])
        for b in range(-1, 6):
            want = charged(tree, lambda: linear_scan(tree, (a, b), (a, b)))
            assert charged(tree, lambda: tree.lookup((a, b))) == want
            assert charged(tree, lambda: batch_probe(tree, (a, b))) == want
        for inclusive in (True, False):
            args = ((a,), (a + 4, 1), inclusive, inclusive)
            want = charged(tree, lambda: linear_scan(tree, *args))
            assert charged(tree, lambda: tree.scan_range(*args)) == want
    assert charged(tree, lambda: tree.lookup(())) == charged(tree, tree.scan_all)
    assert charged(tree, lambda: batch_probe(tree, ())) == charged(tree, tree.scan_all)


def test_lookup_on_an_empty_tree_reads_the_root():
    tree = make_tree()
    assert charged(tree, lambda: tree.lookup((1,))) == ([], 1)
    assert charged(tree, lambda: batch_probe(tree, (1,))) == ([], 1)
    assert charged(tree, lambda: tree.scan_prefix((1,))) == ([], 1)


# ---------------------------------------------------------------------------
# The batch probe against the per-prefix lookup it stands for
# ---------------------------------------------------------------------------


def separators(tree):
    """Every separator of every internal node."""
    found, nodes = [], [tree._root]
    while nodes:
        node = nodes.pop()
        if not hasattr(node, "values"):
            found += node.keys
            nodes += node.children
    return found


def per_prefix(tree, prefixes):
    """The reference: one ``lookup`` per prefix, charged."""
    found = [charged(tree, lambda: tree.lookup(p)) for p in prefixes]
    return [len(entries) for entries, _ in found], found


def assert_batch_matches_lookups(tree, prefixes):
    counts, found = per_prefix(tree, prefixes)
    before = tree._io.index_reads
    got_counts, keys, values = tree.lookup_many(prefixes)
    assert tree._io.index_reads - before == sum(reads for _, reads in found)
    assert got_counts == counts
    assert list(zip(keys, values)) == [e for entries, _ in found for e in entries]


@settings(deadline=None)
@given(
    order=st.integers(3, 64),
    width=st.integers(1, 3),
    unique=st.booleans(),
    data=st.data(),
)
def test_lookup_many_matches_per_prefix_lookups(order, width, unique, data):
    """Entries, per-prefix counts and ``index_reads`` equal one
    ``lookup`` per prefix: duplicate and composite keys, prefixes of
    every width, misses below, between and above every key, prefixes of
    leaf edges and separators, the empty tree, and an insert after a
    batch probe (the directory is rebuilt)."""
    even = st.integers(0, 12).map(lambda v: 2 * v)  # odd values fall between
    keys = data.draw(st.lists(st.tuples(*[even] * width), max_size=240))
    if unique:
        keys = list(dict.fromkeys(keys))
    tree = BTree(IOAccounting(), order=order, unique=unique)
    for value, key in enumerate(keys):
        tree.insert(key, value)
    edges = (leaf_edges(tree) if keys else []) + separators(tree)
    probe = st.tuples(*[st.integers(-1, 26)] * width)
    drawn = data.draw(st.lists(probe, max_size=40))
    prefixes = [
        key[:cut]
        for key in [*drawn, *keys[:20], *edges]
        for cut in range(width + 1)
    ]
    prefixes = data.draw(st.permutations(prefixes))
    assert_batch_matches_lookups(tree, prefixes)
    extra = data.draw(probe)
    if not (unique and extra in keys):
        tree.insert(extra, -1)
        assert_batch_matches_lookups(tree, prefixes + [extra, extra[:1]])
