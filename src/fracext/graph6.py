"""Bit-exact graph6 codec for orders up to 62.

Layout: one size byte n+63, then the upper triangle in column order
((0,1),(0,2),(1,2),(0,3),...) packed into 6-bit groups, most significant
bit first, each group offset by 63.  Extended multi-byte sizes (leading
'~') are deliberately not supported.
"""
from __future__ import annotations

from .graphs import Graph


class Graph6Error(ValueError):
    """Malformed graph6 input; offset is the byte position at fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def parse_graph6(text: str | bytes) -> Graph:
    """Decode one graph6 line; trailing whitespace tolerated."""
    if isinstance(text, bytes):
        text = text.decode("ascii", errors="replace")
    s = text.rstrip("\r\n \t")
    if not s:
        raise Graph6Error("empty input", 0)
    first = ord(s[0])
    if first == 126:
        raise Graph6Error("multi-byte size headers unsupported (order > 62)", 0)
    if not 63 <= first <= 125:
        raise Graph6Error(f"size byte {first} outside 63..125", 0)
    n = first - 63
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(s) - 1 != need:
        # too short: error at end of input; too long: at the first excess byte
        at = len(s) if len(s) - 1 < need else need + 1
        raise Graph6Error(f"expected {need} payload bytes for order {n}, got {len(s) - 1}", at)
    bits = 0
    for i, ch in enumerate(s[1:], start=1):
        val = ord(ch) - 63
        if not 0 <= val <= 63:
            raise Graph6Error(f"payload byte {ord(ch)} outside 63..126", i)
        bits = (bits << 6) | val
    total = need * 6
    pad = total - nbits
    if pad and bits & ((1 << pad) - 1):
        raise Graph6Error("nonzero padding bits", len(s) - 1)
    rows = [0] * n
    pos = total - 1  # MSB-first: bit index of the next (i,j) pair
    for j in range(1, n):
        for i in range(j):
            if (bits >> pos) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            pos -= 1
    return Graph(n, tuple(rows))


def emit_graph6(g: Graph) -> str:
    """Encode a graph of order <= 62 as a graph6 string."""
    n = g.n
    if n > 62:
        raise Graph6Error(f"order {n} exceeds single-byte graph6 limit 62", 0)
    out = [chr(n + 63)]
    acc = 0
    fill = 0
    for j in range(1, n):
        for i in range(j):
            acc = (acc << 1) | ((g.rows[i] >> j) & 1)
            fill += 1
            if fill == 6:
                out.append(chr(acc + 63))
                acc, fill = 0, 0
    if fill:
        out.append(chr((acc << (6 - fill)) + 63))
    return "".join(out)
