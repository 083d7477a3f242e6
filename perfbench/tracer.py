"""Span tracer that times msetzip's modules from outside the package.

``Tracer.install`` replaces public functions and methods of msetzip with
timing wrappers, at the name each caller looks up (``treecodec.hazard``,
``dirmult.quantize``, ``RangeEncoder.encode_interval``, ...), and
``uninstall`` puts the originals back, so untraced round trips run the
package untouched.

Per-operation calls (trie build, validation, tree encode and decode,
enumeration, the Dirichlet-multinomial chain) each record a span with its
parent.  Per-decision calls (coder steps, table lookups and builds, pmf
tables, the end detector, the hazard, ``BitString.from_bits``) run millions
of times, so each only adds to a count and two times (inclusive and self)
kept under its enclosing span.  Everything stays in memory.

A name's module is the part before its first dot.  Every wrapped call
charges its duration to its caller as child time, so the self times of all
modules in a round trip add up to the durations of its root spans.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "self_s", "calls", "counters")

    def __init__(self, span_id: int, parent: int | None, name: str) -> None:
        self.id = span_id
        self.parent = parent
        self.name = name
        self.start = self.end = self.self_s = 0.0
        self.calls: dict[str, list] = {}      # name -> [count, inclusive s, self s]
        self.counters: dict[str, int] = {}

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "self_s": self.self_s,
            "calls": self.calls,
            "counters": self.counters,
        }


def _on_finish(span: Span, args: tuple, payload) -> None:
    c = span.counters
    c["rangecoder.symbols_coded"] = c.get("rangecoder.symbols_coded", 0) + args[0].symbols_coded
    c["rangecoder.payload_bits"] = c.get("rangecoder.payload_bits", 0) + payload.nbits


def _targets():
    """(owner, attribute, traced name, per-operation?, observer) for every
    wrapped callable."""
    from msetzip import bits, container, dirmult, models, msettree, quantize, rangecoder, treecodec

    ops = [
        (msettree.MultisetTree, "build", "msettree.build"),
        (msettree.MultisetTree, "enumerate", "msettree.enumerate"),
        (treecodec, "validate_tree", "treecodec.validate"),
        (container, "encode_tree", "treecodec.encode"),
        (container, "decode_tree", "treecodec.decode"),
        (dirmult, "encode_dirmult", "dirmult.encode"),
        (dirmult, "decode_dirmult", "dirmult.decode"),
    ]
    calls = [
        (rangecoder.RangeEncoder, "encode_interval", "rangecoder.encode_interval", None),
        (rangecoder.RangeEncoder, "finish", "rangecoder.finish", _on_finish),
        (rangecoder.RangeDecoder, "decode_target", "rangecoder.decode_target", None),
        (rangecoder.RangeDecoder, "decode_commit", "rangecoder.decode_commit", None),
        (treecodec.BinomialFamily, "split_table", "quantize.lookup", None),
        (treecodec.BinomialFamily, "termination_table", "quantize.lookup", None),
        (treecodec.BetaBinomialFamily, "split_table", "quantize.lookup", None),
        (treecodec.BetaBinomialFamily, "termination_table", "quantize.lookup", None),
        (quantize, "quantize", "quantize.build", None),
        (dirmult, "quantize", "quantize.build", None),
        (quantize, "binomial_log2pmf_table", "distributions.log2pmf", None),
        (quantize, "betabin_log2pmf_table", "distributions.log2pmf", None),
        (dirmult, "betabin_log2pmf_table", "distributions.log2pmf", None),
        (models.FibTerminatorDetector, "is_complete", "models.detector", None),
        (models.FixedLengthDetector, "is_complete", "models.detector", None),
        (treecodec, "hazard", "models.hazard", None),
        (bits.BitString, "from_bits", "bits.from_bits", None),
    ]
    return [(o, a, n, True, None) for o, a, n in ops] + [(o, a, n, False, f) for o, a, n, f in calls]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._frames: list[list] = []   # [child seconds] per open call or span
        self._open: list[Span] = []
        self._saved: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        s = Span(len(self.spans), self._open[-1].id if self._open else None, name)
        self.spans.append(s)
        frame = [0.0]
        self._frames.append(frame)
        self._open.append(s)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()
            self._frames.pop()
            d = s.end - s.start
            s.self_s = d - frame[0]
            if self._frames:
                self._frames[-1][0] += d

    def _op(self, name: str, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def _call(self, name: str, fn, observe):
        frames, open_spans, clock = self._frames, self._open, time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                d = clock() - t0
                frames.pop()
                frames[-1][0] += d
                acc = open_spans[-1].calls.get(name)
                if acc is None:
                    acc = open_spans[-1].calls[name] = [0, 0.0, 0.0]
                acc[0] += 1
                acc[1] += d
                acc[2] += d - frame[0]
            if observe is not None:
                observe(open_spans[-1], args, result)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, name, is_op, observe in _targets():
            # Later refactors may remove a target; its metrics then read 0.
            raw = owner.__dict__.get(attr)
            if raw is None:
                continue
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            traced = self._op(name, fn) if is_op else self._call(name, fn, observe)
            setattr(owner, attr, classmethod(traced) if isinstance(raw, classmethod) else traced)
            self._saved.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def module_of(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(spans: list[Span]) -> dict:
    """Totals over a set of spans: inclusive seconds per span name,
    [count, inclusive, self] per per-decision name, self seconds per span
    name and per module, and summed counters."""
    inclusive: dict[str, float] = defaultdict(float)
    span_self: dict[str, float] = defaultdict(float)
    calls: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    module_self: dict[str, float] = defaultdict(float)
    counters: dict[str, int] = defaultdict(int)
    for s in spans:
        inclusive[s.name] += s.end - s.start
        span_self[s.name] += s.self_s
        module_self[module_of(s.name)] += s.self_s
        for name, (count, incl, self_s) in s.calls.items():
            acc = calls[name]
            acc[0] += count
            acc[1] += incl
            acc[2] += self_s
            module_self[module_of(name)] += self_s
        for name, v in s.counters.items():
            counters[name] += v
    return {
        "inclusive": inclusive,
        "span_self": span_self,
        "calls": calls,
        "module_self": module_self,
        "counters": counters,
    }
