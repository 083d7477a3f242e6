"""Lossless compression for multisets of binary sequences.

A multiset is stored as its count-annotated binary trie and the node
counts are entropy-coded; discarding the order of N members saves about
log2(N!) bits over compressing them one after another.

    >>> import msetzip
    >>> params = msetzip.CodecParams(regime=msetzip.FixedRegime(16))
    >>> blob = msetzip.compress(["0" * 16, "0" * 16, "1" * 16], params)
    >>> [m.to_str() for m in msetzip.decompress(blob)]
    ['0000000000000000', '0000000000000000', '1111111111111111']
"""

from .bits import BitReader, BitString, BitWriter, as_bitstring
from .container import (
    CompressResult,
    compress,
    compress_tree_detail,
    decompress,
    parse_header,
    serialize_header,
)
from .dirmult import (
    DEFAULT_ALPHA,
    IntMultiset,
    decode_dirmult,
    encode_dirmult,
    ideal_codelength_dirmult,
)
from .errors import (
    CorruptStreamError,
    FormatError,
    ModelMismatchError,
    MsetzipError,
    TruncationError,
)
from .fibcode import fib_decode, fib_encode, fib_length
from .models import (
    EndDetector,
    FibTerminatorDetector,
    FixedLengthDetector,
    GeometricLength,
    LengthModel,
    PointLength,
    UniformLength,
)
from .msettree import MultisetTree, TreeNode
from .rangecoder import RangeDecoder, RangeEncoder
from .treecodec import (
    BetaBinomialFamily,
    BinomialFamily,
    CodecParams,
    FixedRegime,
    GeneralRegime,
    SelfDelimitingRegime,
    ideal_codelength,
)

__version__ = "0.1.0"

__all__ = [
    "BitReader",
    "BitString",
    "BitWriter",
    "as_bitstring",
    "CompressResult",
    "compress",
    "compress_tree_detail",
    "decompress",
    "parse_header",
    "serialize_header",
    "DEFAULT_ALPHA",
    "IntMultiset",
    "decode_dirmult",
    "encode_dirmult",
    "ideal_codelength_dirmult",
    "CorruptStreamError",
    "FormatError",
    "ModelMismatchError",
    "MsetzipError",
    "TruncationError",
    "fib_decode",
    "fib_encode",
    "fib_length",
    "EndDetector",
    "FibTerminatorDetector",
    "FixedLengthDetector",
    "GeometricLength",
    "LengthModel",
    "PointLength",
    "UniformLength",
    "MultisetTree",
    "TreeNode",
    "RangeDecoder",
    "RangeEncoder",
    "BetaBinomialFamily",
    "BinomialFamily",
    "CodecParams",
    "FixedRegime",
    "GeneralRegime",
    "SelfDelimitingRegime",
    "ideal_codelength",
    "__version__",
]
