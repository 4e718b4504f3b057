"""graph6 codec (McKay's format, printable ASCII, no external tools).

Layout: a size header, then the upper triangle of the adjacency matrix in
column-major order, read as (0,1), (0,2), (1,2), (0,3), ... and packed into
6-bit groups, each offset by 63.  Orders up to 62 use a single header byte;
63..258047 use '~' plus three bytes.
"""

from __future__ import annotations

from .errors import ValidationError
from .graphs import MAX_VERTICES, Graph


def encode(g: Graph) -> str:
    n = g.n
    if n <= 62:
        head = chr(63 + n)
    else:
        head = "~" + "".join(chr(63 + (n >> s & 63)) for s in (12, 6, 0))
    bitbuf = []
    for j in range(1, n):
        col = g.rows[j]
        for i in range(j):
            bitbuf.append(col >> i & 1)
    while len(bitbuf) % 6:
        bitbuf.append(0)
    chars = []
    for k in range(0, len(bitbuf), 6):
        val = 0
        for b in bitbuf[k:k + 6]:
            val = val << 1 | b
        chars.append(chr(63 + val))
    return head + "".join(chars)


def decode(text: str) -> Graph:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise ValidationError("empty graph6 string")
    vals = [ord(c) - 63 for c in s]
    if any(v < 0 or v > 63 for v in vals):
        raise ValidationError(f"invalid graph6 character in {text!r}")
    if s[0] == "~":
        if len(s) < 4 or s[1] == "~":
            raise ValidationError("unsupported graph6 size header")
        n = vals[1] << 12 | vals[2] << 6 | vals[3]
        body = vals[4:]
    else:
        n = vals[0]
        body = vals[1:]
    if n > MAX_VERTICES:
        raise ValidationError(f"graph6 order {n} exceeds cap {MAX_VERTICES}")
    need = (n * (n - 1) // 2 + 5) // 6
    if len(body) != need:
        raise ValidationError(
            f"graph6 body length {len(body)} != {need} for n={n}")
    bitpos = 0
    edges = []
    for j in range(1, n):
        for i in range(j):
            if body[bitpos // 6] >> (5 - bitpos % 6) & 1:
                edges.append((i, j))
            bitpos += 1
    # trailing pad bits must be zero
    total = n * (n - 1) // 2
    for p in range(total, need * 6):
        if body[p // 6] >> (5 - p % 6) & 1:
            raise ValidationError("nonzero padding in graph6 string")
    return Graph(n, edges)

