"""Property tests of the graph file formats over random edge-colored
graphs: round trips, adjacency masks, tolerance of comments and
whitespace, and JSON text equal to the ``json`` module's.  Vertex counts
reach 80, past a 64-bit word, and densities fall on both sides of the
byte-row adjacency threshold."""

import json
import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from rainbowgraphs.graphs import (
    EdgeColoredGraph,
    format_edgelist,
    format_json,
    graph_to_json_obj,
    parse_edgelist,
    parse_json,
)


@st.composite
def colored_graphs(draw):
    """A graph with random missing edges and color ids up to 10**6; the
    hypothesis-drawn shape fixes a seed for the per-pair choices."""
    n = draw(st.integers(0, 80))
    keep = draw(st.sampled_from((0.0, 0.1, 0.5, 0.9, 1.0)))
    top = draw(st.sampled_from((0, 1, 2, 5, 1000, 10 ** 6)))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    triples = [(u, v, rng.randint(0, top)) for u in range(n) for v in range(u + 1, n)
               if rng.random() < keep]
    return n, triples, rng


def _naive_adj(n, triples):
    adj = [0] * n
    for u, v, _ in triples:
        adj[u] += 1 << v
        adj[v] += 1 << u
    return adj


def _noisy(text, rng):
    """``text`` with comment and blank lines, runs of spaces and tabs
    between and around tokens, and CRLF line ends, chosen by ``rng``."""
    out = []
    for line in text.splitlines():
        for _ in range(rng.randint(0, 2)):
            out.append(rng.choice(("", "   ", "# comment", "  \t# 1 2 3", "#")))
        tokens = line.split()
        gaps = ["".join(rng.choice(" \t") for _ in range(rng.randint(1, 3)))
                for _ in tokens]
        out.append(rng.choice(("", " ", "\t"))
                   + "".join(tok + gap for tok, gap in zip(tokens, gaps)))
    end = rng.choice(("\n", "\r\n"))
    return end.join(out) + end


@settings(max_examples=100, deadline=None)
@given(colored_graphs())
def test_edgelist_round_trip(case):
    n, triples, rng = case
    G = EdgeColoredGraph(n, triples)
    text = format_edgelist(G)
    H = parse_edgelist(text)
    assert H == G and H.adj == G.adj and H.colors == G.colors
    assert format_edgelist(H) == text
    assert parse_edgelist(_noisy(text, rng)) == G


@settings(max_examples=100, deadline=None)
@given(colored_graphs())
def test_json_round_trip(case):
    n, triples, _ = case
    G = EdgeColoredGraph(n, triples)
    text = format_json(G)
    H = parse_json(text)
    assert H == G and H.adj == G.adj and H.colors == G.colors
    assert format_json(H) == text


@settings(max_examples=100, deadline=None)
@given(colored_graphs())
def test_adjacency_is_the_naive_bitmask(case):
    n, triples, rng = case
    G = EdgeColoredGraph(n, triples)
    assert G.adj == _naive_adj(n, triples)
    assert G.colors == {c for _, _, c in triples}
    # Pair orientation and input order do not matter.
    mixed = [(v, u, c) if rng.random() < 0.5 else (u, v, c) for u, v, c in triples]
    rng.shuffle(mixed)
    H = EdgeColoredGraph(n, mixed)
    assert H == G and H.adj == G.adj


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 40), st.sampled_from((0.0, 0.3, 1.0)),
       st.sampled_from((0, 7, 10 ** 6, 2 ** 64, 10 ** 40)), st.integers(0, 2 ** 32))
@example(0, 1.0, 0, 0)
@example(5, 0.0, 0, 0)
@example(3, 1.0, 10 ** 40, 1)
def test_format_json_is_the_json_modules_text(n, keep, top, seed):
    rng = random.Random(seed)
    G = EdgeColoredGraph(n, [(u, v, rng.randint(0, top)) for u in range(n)
                             for v in range(u + 1, n) if rng.random() < keep])
    assert format_json(G) == json.dumps(graph_to_json_obj(G)) + "\n"
