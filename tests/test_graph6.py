import random

import numpy as np
import pytest

from fracext import (MAX_VERTICES, Graph6Error, complete, cycle, empty_graph, emit_graph6,
                     parse_graph6)
from fracext.graph6 import decode_triangles, from_triangle_bits, pack_triangles, stack_graph6
from fracext.spectral import adjacency_matrices, stack_graphs
from helpers import all_graphs, canonical_forms, random_graph, reference_graph6


def test_frozen_decodings():
    assert parse_graph6("C~") == complete(4)
    p3 = parse_graph6("Bg")
    assert p3.n == 3 and p3.edges() == [(0, 1), (1, 2)]
    k1 = parse_graph6("@")
    assert k1.n == 1 and k1.edge_count() == 0
    empty = parse_graph6("?")
    assert empty.n == 0


def test_frozen_encodings():
    assert emit_graph6(complete(4)) == "C~"
    assert emit_graph6(complete(6)) == "E~~w"
    assert emit_graph6(cycle(5)) == "Dhc"
    assert emit_graph6(complete(62))[0] == "}"     # the last one-byte header
    assert emit_graph6(empty_graph(63)) == "~??~" + "?" * 326
    for header, n in (("~?@?", 64), ("~?@c", 100), ("~?A?", 128)):
        assert emit_graph6(empty_graph(n)) == header + "?" * ((n * (n - 1) // 2 + 5) // 6)


def test_round_trip_random():
    rng = random.Random(20260822)
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 32), rng.random())
        assert parse_graph6(emit_graph6(g)) == g
    # orders 0 and 1, whose packed rows have no bytes, up to the cap; int64 and
    # uint8 stacks, a transposed view, a strided view, a boolean-mask selection
    # (what the sampler passes) and the stack of no graphs
    for n in range(MAX_VERTICES + 1):
        graphs = [random_graph(rng, n, p) for p in (0.05, 0.5, 0.95)]
        lines = [reference_graph6(g) for g in graphs]
        assert [emit_graph6(g) for g in graphs] == lines, n
        assert [parse_graph6(line) for line in lines] == graphs, n
        A = adjacency_matrices(graphs)
        for stack in (A, A.astype(np.uint8), A.swapaxes(1, 2)):
            assert stack_graph6(stack) == lines, n
        assert stack_graph6(A[::2]) == stack_graph6(A.astype(np.uint8)[[True, False, True]]) \
            == lines[::2], n
        assert stack_graph6(A[:0]) == stack_graph6(A.astype(np.uint8)[:0]) == [], n


def test_order_limit():
    # the long header reaches MAX_VERTICES and stops there
    assert emit_graph6(empty_graph(MAX_VERTICES)).startswith("~?A?")
    with pytest.raises(Graph6Error) as e:
        parse_graph6("~?A@")
    assert e.value.offset == 1


def test_bytes_and_whitespace():
    assert parse_graph6(b"C~\n") == complete(4)
    assert parse_graph6("C~ \t\r\n") == complete(4)


def test_malformed_offsets():
    with pytest.raises(Graph6Error) as e:
        parse_graph6("")
    assert e.value.offset == 0
    with pytest.raises(Graph6Error) as e:
        parse_graph6(chr(20) + "abc")
    assert e.value.offset == 0
    with pytest.raises(Graph6Error) as e:
        parse_graph6("C")          # payload missing
    assert e.value.offset == 1
    with pytest.raises(Graph6Error) as e:
        parse_graph6("C~~")        # one byte too many
    assert e.value.offset == 2
    with pytest.raises(Graph6Error):
        parse_graph6("B" + chr(126))  # padding bits set
    for text, offset in (("~??}", 1),                # order 62 in the long form
                         ("~?", 2),                  # truncated header
                         ("~", 1),
                         ("~~??????", 1),            # eight-byte header
                         ("~?(?", 2),                # a header byte outside 63..126
                         ("~??~" + "?" * 325, 329),  # one payload byte short
                         ("~??~" + "?" * 327, 330)): # one too many
        with pytest.raises(Graph6Error) as e:
            parse_graph6(text)
        assert e.value.offset == offset, text


def _packed_row(n, bits):
    """from_triangle_bits's integer as one pack_triangles row: shifted left
    past the padding to whole bytes, big-endian."""
    nbits = n * (n - 1) // 2
    return np.frombuffer((bits << (-nbits % 8)).to_bytes((nbits + 7) // 8, "big"), dtype=np.uint8)


def _assert_bulk_codec_matches(n, bits_list):
    packed = np.array([_packed_row(n, b) for b in bits_list], dtype=np.uint8)
    A = decode_triangles(n, packed)
    assert A.dtype == np.uint8 and A.shape == (len(bits_list), n, n)
    assert [g.rows for g in stack_graphs(A)] == [from_triangle_bits(n, b).rows for b in bits_list]
    assert (pack_triangles(A) == packed).all()


def test_bulk_decoder_equals_from_triangle_bits_on_every_class():
    for n in range(8):
        forms = canonical_forms(all_graphs(n))
        _assert_bulk_codec_matches(n, [bits for _, bits in forms])


def test_bulk_decoder_equals_from_triangle_bits_on_random_forms():
    # orders 0-2, the byte boundary 8-9, the padding around 62-64 where the long
    # header starts, the 64-bit word boundaries 63-65 and 127-128, and the cap
    rng = random.Random(47)
    for n in (0, 1, 2, 8, 9, 62, 63, 64, 65, 127, 128):
        nbits = n * (n - 1) // 2
        bits_list = [0, (1 << nbits) - 1] + [rng.getrandbits(nbits) for _ in range(6)]
        _assert_bulk_codec_matches(n, bits_list)
