"""Count-annotated trie: construction, canonical form, counting identities."""

import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msetzip.bits import BitString
from msetzip.msettree import MultisetTree, TreeNode

FIXED7 = ["000", "000", "010", "011", "101", "110", "111"]
VARLEN10 = ["0", "00", "000", "01", "10", "10", "101", "11", "110", "111"]


def node_at(tree: MultisetTree, prefix: str) -> TreeNode:
    node = tree.root
    for ch in prefix:
        node = node.child(int(ch))
        assert node is not None, prefix
    return node


def members_strat(max_n=24, max_len=8):
    member = st.text(alphabet="01", min_size=0, max_size=max_len)
    return st.lists(member, min_size=0, max_size=max_n)


class TestWorkedExamples:
    def test_fixed_length_counts(self):
        t = MultisetTree.build(FIXED7)
        assert node_at(t, "").count == 7
        assert node_at(t, "0").count == 4
        assert node_at(t, "1").count == 3
        assert node_at(t, "01").count == 2
        assert node_at(t, "00").count == 2
        assert node_at(t, "000").count == 2
        assert node_at(t, "000").slack == 2
        for p in ("", "0", "1", "01", "00", "10", "11"):
            assert node_at(t, p).slack == 0  # nothing ends early

    def test_fixed_length_enumerate_is_sorted(self):
        t = MultisetTree.build(FIXED7)
        assert [m.to_str() for m in t] == sorted(FIXED7)

    def test_variable_length_counts(self):
        t = MultisetTree.build(VARLEN10)
        assert node_at(t, "").count == 10
        assert node_at(t, "0").count == 4
        assert node_at(t, "1").count == 6
        # of the four strings under "0": two continue 0, one continues 1,
        # one terminates here
        n = node_at(t, "0")
        assert n.child(0).count == 2
        assert n.child(1).count == 1
        assert n.slack == 1
        assert node_at(t, "10").slack == 2  # the two bare "10" members
        # root, 0, 00, 000, 01, 1, 10, 101, 11, 110, 111
        assert t.node_count() == 11
        assert repr(t) == "MultisetTree(N=10, nodes=11)"

    def test_variable_length_enumerate(self):
        t = MultisetTree.build(VARLEN10)
        got = [m.to_str() for m in t]
        assert got == sorted(VARLEN10, key=lambda s: (s + "0" * 8, len(s)))
        assert Counter(got) == Counter(VARLEN10)


class TestMutation:
    def test_insert_then_multiplicity(self):
        t = MultisetTree()
        t.insert("0101")
        t.insert("0101")
        t.insert("01")
        assert len(t) == 3
        assert t.multiplicity("0101") == 2
        assert t.multiplicity("01") == 1
        assert t.multiplicity("0") == 0
        assert "01" in t and "0" not in t

    def test_empty_string_member(self):
        t = MultisetTree.build(["", "", "1"])
        assert t.multiplicity("") == 2
        assert t.root.slack == 2
        assert [m.to_str() for m in t] == ["", "", "1"]

    def test_remove_decrements(self):
        t = MultisetTree.build(["00", "00", "01"])
        t.remove("00")
        assert t.multiplicity("00") == 1
        assert len(t) == 2

    def test_remove_prunes_empty_branches(self):
        t = MultisetTree.build(["0000"])
        t.remove("0000")
        assert len(t) == 0
        assert t.node_count() == 1  # only the root survives

    def test_remove_missing_raises(self):
        t = MultisetTree.build(["00"])
        with pytest.raises(KeyError):
            t.remove("01")
        with pytest.raises(KeyError):
            t.remove("0")  # proper prefix of a member, not a member
        assert len(t) == 1

    def test_empty_tree(self):
        t = MultisetTree()
        assert len(t) == 0
        assert list(t) == []
        assert t.node_count() == 1
        with pytest.raises(ValueError):
            t.sample(random.Random(0))


class TestCanonical:
    @given(members_strat())
    @settings(max_examples=200)
    def test_build_is_order_invariant(self, members):
        rng = random.Random(1234)
        shuffled = list(members)
        rng.shuffle(shuffled)
        assert MultisetTree.build(members) == MultisetTree.build(shuffled)

    @given(members_strat())
    @settings(max_examples=200)
    def test_enumerate_round_trips(self, members):
        t = MultisetTree.build(members)
        assert Counter(m.to_str() for m in t) == Counter(members)
        assert len(t) == len(members)

    @given(members_strat())
    def test_counts_conserved_at_every_node(self, members):
        t = MultisetTree.build(members)
        stack = [t.root]
        while stack:
            node = stack.pop()
            total = node.slack
            for b in (0, 1):
                c = node.child(b)
                if c is not None:
                    assert c.count > 0  # zero-count nodes never materialize
                    total += c.count
                    stack.append(c)
            assert node.count == total

    def test_trees_hash_rejected(self):
        with pytest.raises(TypeError):
            hash(MultisetTree())


class TestMerge:
    @given(members_strat(max_n=12), members_strat(max_n=12))
    @settings(max_examples=100)
    def test_merge_equals_union_build(self, xs, ys):
        a, b = MultisetTree.build(xs), MultisetTree.build(ys)
        merged = a.merge(b)
        assert merged == MultisetTree.build(xs + ys)
        assert merged == b.merge(a)
        # inputs unchanged
        assert a == MultisetTree.build(xs)
        assert b == MultisetTree.build(ys)

    def test_merge_with_empty_is_identity(self):
        t = MultisetTree.build(VARLEN10)
        assert t.merge(MultisetTree()) == t
        assert MultisetTree().merge(t) == t


class TestTelescoping:
    @given(members_strat(max_n=20, max_len=6))
    @settings(max_examples=100)
    def test_branching_product_counts_permutations(self, members):
        # Prod over nodes of C(n, n1) * C(n - n1, n0)... collapses to
        # N! / prod m_j! when each node splits its count among
        # (terminate, child0, child1).  Exact integer identity.
        t = MultisetTree.build(members)
        prod = 1
        stack = [t.root]
        while stack:
            node = stack.pop()
            rem = node.count - node.slack
            c0 = node.child(0)
            n0 = c0.count if c0 is not None else 0
            prod *= math.comb(node.count, node.slack) * math.comb(rem, n0)
            for b in (0, 1):
                c = node.child(b)
                if c is not None:
                    stack.append(c)
        mult = Counter(members)
        expect = math.factorial(len(members))
        for m in mult.values():
            expect //= math.factorial(m)
        assert prod == expect


class TestSample:
    def test_sample_matches_multiplicities(self):
        t = MultisetTree.build(FIXED7)
        n = 100_000
        rng = random.Random(99)
        hits = sum(t.sample(rng).to_str() == "000" for _ in range(n))
        p = 2 / 7
        sigma = math.sqrt(n * p * (1 - p))
        assert abs(hits - n * p) <= 3 * sigma, hits

    def test_sample_only_returns_members(self):
        t = MultisetTree.build(VARLEN10)
        allowed = set(VARLEN10)
        rng = random.Random(7)
        for _ in range(2000):
            assert t.sample(rng).to_str() in allowed

    def test_sample_seed_forms_agree(self):
        t = MultisetTree.build(VARLEN10)
        a = [t.sample(random.Random(5)).to_str() for _ in range(20)]
        b = [t.sample(5).to_str() for _ in range(20)]
        # int seed makes a fresh Random each call; first draws must match
        assert b == [a[0]] * 20


def test_iter_yields_bitstrings():
    t = MultisetTree.build(["01", BitString.from_str("10")])
    got = list(t)
    assert all(isinstance(m, BitString) for m in got)
    assert [m.to_str() for m in got] == ["01", "10"]


def test_iter_shares_one_bitstring_per_distinct_member():
    got = list(MultisetTree.build(["10", "0", "10", "0", "10"]))
    assert [m.to_str() for m in got] == ["0", "0", "10", "10", "10"]
    assert got[0] is got[1]
    assert got[2] is got[3] is got[4]
    assert got[1] is not got[2]
