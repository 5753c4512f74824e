"""Header-less graph6 text encoding.

Layout: the order n comes first (one byte n+63 for n <= 62, or 0x7e followed
by three bytes holding an 18-bit big-endian value for n <= 258047), then the
upper triangle of the adjacency matrix in column order ((0,1), (0,2), (1,2),
(0,3), ...) packed big-endian six bits per byte, each byte offset by 63.
Padding bits after the triangle must round-trip as zero; their content is
ignored on input.
"""

from __future__ import annotations

from .errors import Graph6ParseError
from .graph import GRAPH6_MAX_ORDER, Graph

_OFF = 63
_MAXC = 126


def emit_graph6(g: Graph) -> str:
    n = g.n
    out = []
    if n <= 62:
        out.append(chr(n + _OFF))
    elif n <= GRAPH6_MAX_ORDER:
        out.append(chr(_MAXC))
        out.append(chr(((n >> 12) & 0x3F) + _OFF))
        out.append(chr(((n >> 6) & 0x3F) + _OFF))
        out.append(chr((n & 0x3F) + _OFF))
    else:
        raise Graph6ParseError(f"order {n} beyond supported graph6 range")
    acc = 0
    nbits = 0
    for col in range(1, n):
        colmask = g.adj[col]
        for row in range(col):
            acc = (acc << 1) | (colmask >> row & 1)
            nbits += 1
            if nbits == 6:
                out.append(chr(acc + _OFF))
                acc = 0
                nbits = 0
    if nbits:
        acc <<= 6 - nbits
        out.append(chr(acc + _OFF))
    return "".join(out)


def parse_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise Graph6ParseError("empty graph6 string", 0)
    data = []
    for i, ch in enumerate(s):
        code = ord(ch)
        if code < _OFF or code > _MAXC:
            raise Graph6ParseError(f"character {ch!r} outside graph6 range", i)
        data.append(code - _OFF)
    pos = 0
    if data[0] == _MAXC - _OFF:
        if len(data) >= 2 and data[1] == _MAXC - _OFF:
            raise Graph6ParseError(f"orders above {GRAPH6_MAX_ORDER} not supported", 1)
        if len(data) < 4:
            raise Graph6ParseError("truncated multi-byte order field", len(s))
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        pos = 4
    else:
        n = data[0]
        pos = 1
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(data) - pos != need:
        raise Graph6ParseError(
            f"expected {need} adjacency bytes for n={n}, got {len(data) - pos}",
            min(pos + need, len(s)))
    adj = [0] * n
    bit = 0
    for col in range(1, n):
        for row in range(col):
            byte = data[pos + bit // 6]
            if (byte >> (5 - bit % 6)) & 1:
                adj[row] |= 1 << col
                adj[col] |= 1 << row
            bit += 1
    return Graph(n, tuple(adj))
