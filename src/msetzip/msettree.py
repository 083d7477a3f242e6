"""Count-annotated binary trie over a multiset of bit strings.

Every node stores the number of members that begin with its prefix (the
root counts everything, including any empty strings).  The difference
n - n0 - n1 between a node and its children is the number of members
equal to the node's prefix exactly; nothing else is stored, so the tree
is canonical for the multiset: any insertion order produces the same
structure, which is what makes the compressed output order-invariant.

Zero-count nodes are never kept.  A present child always has count >= 1.
"""

from __future__ import annotations

import random
from itertools import repeat
from typing import Iterable, Iterator, Optional

from .bits import BitString, as_bitstring


class TreeNode:
    __slots__ = ("count", "child0", "child1")

    def __init__(
        self, count: int = 0, child0: Optional[TreeNode] = None, child1: Optional[TreeNode] = None
    ):
        self.count = count
        self.child0 = child0
        self.child1 = child1

    def child(self, bit: int) -> Optional["TreeNode"]:
        return self.child1 if bit else self.child0

    def set_child(self, bit: int, node: Optional["TreeNode"]) -> None:
        if bit:
            self.child1 = node
        else:
            self.child0 = node

    @property
    def slack(self) -> int:
        """Members terminating exactly at this node's prefix."""
        n0 = self.child0.count if self.child0 is not None else 0
        n1 = self.child1.count if self.child1 is not None else 0
        return self.count - n0 - n1


class MultisetTree:
    """Mutable multiset of bit strings with trie-structured counts.

    Single writer at a time; concurrent readers are fine.  merge()
    adopts whole branches from its inputs rather than copying them, so
    trees that have been merged share structure and must be treated as
    read-only afterwards.
    """

    def __init__(self) -> None:
        self.root = TreeNode(0)

    @classmethod
    def build(cls, members: Iterable) -> "MultisetTree":
        tree = cls()
        for m in members:
            tree.insert(m)
        return tree

    def __len__(self) -> int:
        return self.root.count

    def insert(self, member) -> None:
        member = as_bitstring(member)
        node = self.root
        node.count += 1
        for i in range(member.nbits):
            bit = member.bit(i)
            nxt = node.child(bit)
            if nxt is None:
                nxt = TreeNode(0)
                node.set_child(bit, nxt)
            nxt.count += 1
            node = nxt

    def multiplicity(self, member) -> int:
        member = as_bitstring(member)
        node = self.root
        for i in range(member.nbits):
            node = node.child(member.bit(i))
            if node is None:
                return 0
        return node.slack

    def __contains__(self, member) -> bool:
        return self.multiplicity(member) > 0

    def remove(self, member) -> None:
        """Remove one occurrence; KeyError if the member is absent."""
        member = as_bitstring(member)
        if self.multiplicity(member) == 0:
            raise KeyError(member.to_str())
        node = self.root
        node.count -= 1
        for i in range(member.nbits):
            bit = member.bit(i)
            nxt = node.child(bit)
            nxt.count -= 1
            if nxt.count == 0:
                node.set_child(bit, None)
                return
            node = nxt

    def __iter__(self) -> Iterator[BitString]:
        """Yield members in lexicographic order, repeated per multiplicity.

        A prefix sorts before its extensions, so terminations at a node
        come out before anything in its subtrees.  BitString is immutable,
        so the copies of a member are one shared object.
        """
        prefix: list[int] = []
        stack = [(self.root, 0, 0)]
        while stack:
            node, d, bit = stack.pop()
            if d:
                prefix[d - 1 :] = (bit,)  # the parent's prefix, then this node's bit
            slack = node.slack
            if slack:
                yield from repeat(BitString.from_bits(prefix), slack)
            if node.child1 is not None:
                stack.append((node.child1, d + 1, 1))
            if node.child0 is not None:
                stack.append((node.child0, d + 1, 0))

    def sample(self, rng: random.Random | int | None = None) -> BitString:
        """Draw a member with probability multiplicity / N."""
        if self.root.count == 0:
            raise ValueError("cannot sample from an empty multiset")
        if not isinstance(rng, random.Random):
            rng = random.Random(rng)
        prefix: list[int] = []
        node = self.root
        while True:
            u = rng.randrange(node.count)
            u -= node.slack
            if u < 0:
                return BitString.from_bits(prefix)
            n0 = node.child0.count if node.child0 is not None else 0
            if u < n0:
                prefix.append(0)
                node = node.child0
            else:
                prefix.append(1)
                node = node.child1

    def merge(self, other: "MultisetTree") -> "MultisetTree":
        """Multiset union.  Visits only nodes present in both trees;
        branches unique to one input are adopted by reference."""
        out = MultisetTree()
        out.root = _merge_nodes(self.root, other.root)
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultisetTree):
            return NotImplemented
        stack = [(self.root, other.root)]
        while stack:
            a, b = stack.pop()
            if a.count != b.count:
                return False
            for bit in (0, 1):
                ca, cb = a.child(bit), b.child(bit)
                if (ca is None) != (cb is None):
                    return False
                if ca is not None:
                    stack.append((ca, cb))
        return True

    def node_count(self) -> int:
        total = 0
        stack = [self.root]
        while stack:
            node = stack.pop()
            total += 1
            if node.child0 is not None:
                stack.append(node.child0)
            if node.child1 is not None:
                stack.append(node.child1)
        return total

    def __repr__(self) -> str:
        n = self.root.count
        return f"MultisetTree(N={n}, nodes={self.node_count()})"


def _merge_nodes(a: TreeNode, b: TreeNode) -> TreeNode:
    out = TreeNode(a.count + b.count)
    stack = [(out, a, b)]
    while stack:
        dst, x, y = stack.pop()
        for bit in (0, 1):
            cx, cy = x.child(bit), y.child(bit)
            if cx is None or cy is None:
                dst.set_child(bit, cx if cy is None else cy)
            else:
                child = TreeNode(cx.count + cy.count)
                dst.set_child(bit, child)
                stack.append((child, cx, cy))
    return out
