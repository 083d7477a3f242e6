"""Multiset codecs over count-annotated tries.

The codec is one pre-order walk of the trie (parents before children,
child 0 before child 1) that codes, at every node short of a complete
member, how the node's n members divide.  Validation, encoding, decoding
and the ideal codelength are that walk with a different step per node:
check it, encode its counts, decode them and create the children, or add
their -log2 p.  The decoder recovers each count before descending, so
both sides always agree on the next distribution.

The regime sets the walk's schedule, resolved once per call:

  * fixed(L): every member has length exactly L.  Depth-L nodes are
    complete; every other node codes n1 given n (n0 = n - n1 is
    implied).  Depth cap L.
  * self-delimiting(detector): as fixed, except a node is complete where
    the detector declares its prefix complete.  No termination counts
    are coded; the detector carries all length information.
  * general(length_model): no node is complete.  Every node of depth d
    first codes its termination count n_T ~ Binomial(n, theta_T(d)),
    theta_T being the length model's hazard, then splits the other
    n - n_T members as in fixed mode.  Depth cap the model's maximum
    length, if it has one.

The depth cap is DECODE_DEPTH_CAP unless stated.  Validation refuses a
deeper member before anything is coded and the decoder will not descend
past it, so compress never writes a container that decompress refuses.

Families supply the per-node count distribution: Binomial(n, theta)
with known bias, or Beta-binomial(n, alpha, beta) when the bias is
unknown.  Beta-binomial state is fresh at every node (nothing adapts
across nodes).  Under the beta-binomial family the general regime's
termination count is also coded Beta-binomially -- the termination rate
is then treated as unknown too, and the length model is used only to
validate members, not to code.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from .distributions import betabin_log2pmf_table, binomial_log2pmf_table
from .errors import CorruptStreamError, ModelMismatchError
from .models import EndDetector, LengthModel, hazard
from .msettree import MultisetTree, TreeNode
from .quantize import QuantizedPmf, quantized_betabin, quantized_binomial
from .rangecoder import RangeDecoder, RangeEncoder

# Bound on member length in the two unbounded regimes: a corrupted
# payload must not walk forever (a truncated stream reads as endless
# zero bytes, which keep every member alive almost for free).  64k-bit
# members sit far past this library's domain of short sequences, and
# hitting the cap costs well under a second.
DECODE_DEPTH_CAP = 1 << 16


@dataclass(frozen=True)
class BinomialFamily:
    theta: Fraction = Fraction(1, 2)

    def __post_init__(self) -> None:
        if not 0 <= self.theta <= 1:
            raise ValueError("theta must lie in [0, 1]")

    def split_table(self, n: int) -> QuantizedPmf:
        return quantized_binomial(n, self.theta)

    def termination_table(self, n: int, theta_t: Fraction) -> QuantizedPmf:
        return quantized_binomial(n, theta_t)

    def split_log2pmf(self, n: int) -> array:
        return binomial_log2pmf_table(n, self.theta)

    def termination_log2pmf(self, n: int, theta_t: Fraction) -> array:
        return binomial_log2pmf_table(n, theta_t)


@dataclass(frozen=True)
class BetaBinomialFamily:
    alpha: Fraction = Fraction(1, 2)
    beta: Fraction = Fraction(1, 2)

    def __post_init__(self) -> None:
        if self.alpha <= 0 or self.beta <= 0:
            raise ValueError("alpha and beta must be positive")

    def split_table(self, n: int) -> QuantizedPmf:
        return quantized_betabin(n, self.alpha, self.beta)

    def termination_table(self, n: int, theta_t: Fraction) -> QuantizedPmf:
        # theta_t intentionally unused: the termination rate is coded as
        # unknown, same prior as the splits.
        return quantized_betabin(n, self.alpha, self.beta)

    def split_log2pmf(self, n: int) -> array:
        return betabin_log2pmf_table(n, self.alpha, self.beta)

    def termination_log2pmf(self, n: int, theta_t: Fraction) -> array:
        return betabin_log2pmf_table(n, self.alpha, self.beta)


Family = Union[BinomialFamily, BetaBinomialFamily]


@dataclass(frozen=True)
class FixedRegime:
    length: int

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError("fixed-mode length must be >= 1")


@dataclass(frozen=True)
class SelfDelimitingRegime:
    detector: EndDetector


@dataclass(frozen=True)
class GeneralRegime:
    length_model: LengthModel


Regime = Union[FixedRegime, SelfDelimitingRegime, GeneralRegime]

# Whether a prefix ends every member that reaches it.
Completion = Callable[[Sequence[int]], bool]


@dataclass(frozen=True)
class CodecParams:
    regime: Regime
    family: Family = BinomialFamily()


def _schedule(regime: Regime) -> tuple[Completion, Optional[LengthModel], int]:
    """(completion, length model whose termination counts are coded, depth cap).
    DECODE_DEPTH_CAP is read per call, so lowering it takes effect at once."""
    if isinstance(regime, FixedRegime):
        length = regime.length
        return lambda prefix: len(prefix) == length, None, length
    if isinstance(regime, SelfDelimitingRegime):
        return regime.detector.is_complete, None, DECODE_DEPTH_CAP
    if isinstance(regime, GeneralRegime):
        cap = regime.length_model.max_length()
        return lambda prefix: False, regime.length_model, DECODE_DEPTH_CAP if cap is None else cap
    raise TypeError(f"unknown regime {regime!r}")


def _walk(
    root: TreeNode, complete: Completion, cap: int, step, error: type = ModelMismatchError
) -> None:
    """Call step(node, depth) at every node under root that is short of a
    complete member, in pre-order with child 0 before child 1, then descend
    into the children the node has once step returns (the decoder's step
    creates them).  A node past the depth cap, or a complete node with
    children, raises error: the regime cannot hold its members."""
    prefix: list[int] = []
    stack = [(root, 0, 0)]
    while stack:
        node, d, bit = stack.pop()
        if d > cap:
            raise error(f"member longer than the depth cap of {cap} bits")
        if d:
            prefix[d - 1 :] = (bit,)  # the parent's prefix, then this node's bit
        if complete(prefix):
            if node.child0 is not None or node.child1 is not None:
                raise error(f"member extends a complete {d}-bit prefix")
            continue
        step(node, d)
        if node.child1 is not None:
            stack.append((node.child1, d + 1, 1))
        if node.child0 is not None:
            stack.append((node.child0, d + 1, 0))


# Tables one call keeps per kind (split, termination): bounded, so a deep
# chain's distinct counts (~N^2/2 entries in all) never stay alive at once.
_TABLES_PER_CALL = 1024


def _tables(split: Callable, termination: Callable, model: Optional[LengthModel]):
    """Per-call caches over a family's table factories: split(n) and
    termination(d, n).  Keys are ints, which keeps the module-level caches'
    Fraction hashing off the per-node path; depths with equal hazards share
    tables through the first depth that has that hazard."""
    split = lru_cache(maxsize=_TABLES_PER_CALL)(split)
    first_depth: dict[Fraction, int] = {}  # hazard -> first depth with it
    depth_of: dict[int, int] = {}  # depth -> first depth with its hazard

    @lru_cache(maxsize=_TABLES_PER_CALL)
    def shared(d0: int, n: int):
        return termination(n, hazard(model, d0))

    def at_depth(d: int, n: int):
        d0 = depth_of.get(d)
        if d0 is None:
            d0 = depth_of[d] = first_depth.setdefault(hazard(model, d), d)
        return shared(d0, n)

    return split, at_depth


def validate_tree(tree: MultisetTree, params: CodecParams) -> None:
    """Raise ModelMismatchError unless the regime can code every member.
    Checked in full before anything is emitted."""
    complete, model, cap = _schedule(params.regime)

    def check(node: TreeNode, d: int) -> None:
        if node.slack and (model is None or model.pmf(d) == 0):
            raise ModelMismatchError(f"member of length {d} cannot occur under the regime")

    _walk(tree.root, complete, cap, check)


def encode_tree(tree: MultisetTree, params: CodecParams, enc: RangeEncoder) -> None:
    """Code the tree's counts.  N itself is the container's job."""
    validate_tree(tree, params)
    if len(tree) == 0:
        return
    complete, model, cap = _schedule(params.regime)
    fam = params.family
    split, termination = _tables(fam.split_table, fam.termination_table, model)

    def encode(node: TreeNode, d: int) -> None:
        n = node.count
        if model is not None:
            n_t = node.slack
            enc.encode_interval(termination(d, n).cum, n_t)
            n -= n_t
        enc.encode_interval(split(n).cum, node.child1.count if node.child1 is not None else 0)

    _walk(tree.root, complete, cap, encode)


def decode_tree(params: CodecParams, n_members: int, dec: RangeDecoder) -> MultisetTree:
    tree = MultisetTree()
    if n_members == 0:
        return tree
    tree.root.count = n_members
    complete, model, cap = _schedule(params.regime)
    fam = params.family
    split, termination = _tables(fam.split_table, fam.termination_table, model)

    def decode(node: TreeNode, d: int) -> None:
        n = node.count
        if model is not None:
            n_t = dec.decode_target(termination(d, n).cum)
            if n_t and model.pmf(d) == 0:
                # reachable only with full-support termination tables on a
                # corrupt stream; no encoder output decodes to this state
                raise CorruptStreamError(f"decoded a member of impossible length {d}")
            n -= n_t
        n1 = dec.decode_target(split(n).cum)
        if n1:
            node.child1 = TreeNode(n1)
        if n - n1:
            node.child0 = TreeNode(n - n1)

    _walk(tree.root, complete, cap, decode, CorruptStreamError)
    return tree


def ideal_codelength(tree: MultisetTree, params: CodecParams) -> float:
    """Sum of -log2 pmf over the exact (unquantized) distributions of the
    decisions the encoder codes: the optimality yardstick.  In fixed mode
    with theta = 1/2 it equals N*L - log2(N!/prod m_j!)."""
    validate_tree(tree, params)
    if len(tree) == 0:
        return 0.0
    complete, model, cap = _schedule(params.regime)
    fam = params.family
    split, termination = _tables(fam.split_log2pmf, fam.termination_log2pmf, model)
    total = 0.0

    def add(node: TreeNode, d: int) -> None:
        nonlocal total
        n = node.count
        if model is not None:
            n_t = node.slack
            total -= float(termination(d, n)[n_t])
            n -= n_t
        total -= float(split(n)[node.child1.count if node.child1 is not None else 0])

    _walk(tree.root, complete, cap, add)
    return total
