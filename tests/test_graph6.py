import random

import pytest

from fracext import (MAX_VERTICES, Graph6Error, complete, cycle, empty_graph, emit_graph6,
                     parse_graph6)
from helpers import random_graph, reference_graph6


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
    for n in range(MAX_VERTICES + 1):
        for p in (0.05, 0.5, 0.95):
            g = random_graph(rng, n, p)
            assert emit_graph6(g) == reference_graph6(g), (n, p)
            assert parse_graph6(emit_graph6(g)) == g


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
