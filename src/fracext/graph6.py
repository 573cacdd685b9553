"""Bit-exact graph6 codec for orders up to 128, and the one home of the
upper-triangle layout: the pairs in column order ((0,1),(0,2),(1,2),
(0,3),...), packed into 6-bit groups, most significant bit first, each
group offset by 63.  The size header is the group n for n <= 62, else '~'
and n in three groups; being bit-exact, the codec rejects the long form
below order 63 and the eight-byte '~~' form.

The same layout, zero-padded to whole bytes instead of 6-bit groups, is the
packed form of a stack of graphs of one order: pack_triangles writes it,
one row per graph.  decode_triangles turns the rows back into a uint8
adjacency stack with one np.unpackbits and a triangle scatter, and
stack_graph6 into graph6 text with one base64 call; emit_graph6 is that on
a stack of one.  Corpus canonical forms are such rows, and at one order
their byte order is the order of from_triangle_bits's integers, which
parse_graph6 reads from text one graph at a time.
"""
from __future__ import annotations

import binascii

import numpy as np

from .graphs import MAX_VERTICES, Graph
from .spectral import adjacency_matrices

_BASE64_TO_GRAPH6 = bytes.maketrans(
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/", bytes(range(63, 127)))


class Graph6Error(ValueError):
    """Malformed graph6 input; offset is the byte position at fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def from_triangle_bits(n: int, bits: int) -> Graph:
    """The graph of order n whose upper triangle, packed in graph6 column
    order with the first pair most significant, is the integer bits."""
    rows = [0] * n
    pos = n * (n - 1) // 2
    for j in range(1, n):
        pos -= j
        col = (bits >> pos) & ((1 << j) - 1)   # bit j-1-i is the pair (i, j)
        while col:
            low = col & -col
            i = j - low.bit_length()
            rows[i] |= 1 << j
            rows[j] |= 1 << i
            col ^= low
    return Graph._of(n, tuple(rows))


def pack_triangles(A: np.ndarray) -> np.ndarray:
    """The upper triangles of an (m, n, n) 0/1 adjacency stack, packed: row b
    holds graph b's pairs in column order, most significant bit first,
    zero-padded to whole bytes.  Read as a big-endian integer and shifted
    right past the padding, a row is from_triangle_bits's bits."""
    # the strict lower triangle row by row is (1,0),(2,0),(2,1),(3,0),...:
    # the pairs (q, p), q < p, in column order
    return np.packbits(A[:, np.tri(A.shape[1], k=-1, dtype=bool)], axis=1)


def decode_triangles(n: int, packed: np.ndarray) -> np.ndarray:
    """The (m, n, n) uint8 adjacency stack of m pack_triangles rows of order n."""
    lower = np.tri(n, k=-1, dtype=bool)
    bits = np.unpackbits(packed, axis=1, count=n * (n - 1) // 2)
    A = np.zeros((len(packed), n, n), dtype=np.uint8)
    A[:, lower] = bits
    A.transpose(0, 2, 1)[:, lower] = bits   # the mirror image, through a view
    return A


def _header(n: int) -> str:
    if n <= 62:
        return chr(n + 63)
    return "~" + "".join(chr((n >> shift & 63) + 63) for shift in (12, 6, 0))


def _groups(s: str, start: int, stop: int) -> int:
    """The 6-bit groups s[start:stop] as one integer, the first most significant."""
    bits = 0
    for i in range(start, stop):
        val = ord(s[i]) - 63
        if not 0 <= val <= 63:
            raise Graph6Error(f"byte {ord(s[i])} outside 63..126", i)
        bits = (bits << 6) | val
    return bits


def _order(s: str) -> tuple[int, int]:
    """(order, header length) of a non-empty line."""
    if s[0] != "~":
        return _groups(s, 0, 1), 1
    if s[1:2] == "~":
        raise Graph6Error(f"eight-byte size header (order > {MAX_VERTICES})", 1)
    if len(s) < 4:
        raise Graph6Error("truncated size header", len(s))
    n = _groups(s, 1, 4)
    if n > MAX_VERTICES:
        raise Graph6Error(f"order {n} outside 0..{MAX_VERTICES}", 1)
    if _header(n) != s[:4]:
        raise Graph6Error(f"long size header for order {n}, which takes one byte", 1)
    return n, 4


def parse_graph6(text: str | bytes) -> Graph:
    """Decode one graph6 line; trailing whitespace tolerated."""
    if isinstance(text, bytes):
        text = text.decode("ascii", errors="replace")
    s = text.rstrip("\r\n \t")
    if not s:
        raise Graph6Error("empty input", 0)
    n, head = _order(s)
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    got = len(s) - head
    if got != need:
        # too short: error at end of input; too long: at the first excess byte
        at = len(s) if got < need else head + need
        raise Graph6Error(f"expected {need} payload bytes for order {n}, got {got}", at)
    bits = _groups(s, head, len(s))
    pad = need * 6 - nbits
    if bits & ((1 << pad) - 1):
        raise Graph6Error("nonzero padding bits", len(s) - 1)
    return from_triangle_bits(n, bits >> pad)


def stack_graph6(A: np.ndarray) -> list[str]:
    """The graph6 line of each graph of an (m, n, n) 0/1 adjacency stack: its
    pack_triangles row, zero-padded to whole 3-byte units, in base64."""
    m, n = A.shape[:2]
    nbits = n * (n - 1) // 2
    units = np.zeros((m, (nbits + 23) // 24 * 3), dtype=np.uint8)
    units[:, :(nbits + 7) // 8] = pack_triangles(A)
    text = binascii.b2a_base64(units.tobytes(), newline=False).translate(_BASE64_TO_GRAPH6).decode()
    head, step, groups = _header(n), units.shape[1] // 3 * 4, (nbits + 5) // 6
    return [head + text[b * step:b * step + groups] for b in range(m)]


def emit_graph6(g: Graph) -> str:
    """Encode a graph as a graph6 string: stack_graph6 on its stack of one."""
    return stack_graph6(adjacency_matrices([g]))[0]
