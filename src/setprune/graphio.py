"""Graph ingestion, knapsack cost assignment, and synthetic instance generation.

Graphs are immutable CSR-style adjacency structures over node ids that are
densely re-indexed to ``0..n-1``. Edge-list input follows the usual
plain-text convention: one whitespace-separated ``u v`` pair per line,
``#`` starting a comment line, optional gzip compression by file suffix.
"""

from __future__ import annotations

import dataclasses
import gzip
import operator
import zlib
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, ParseError, outside_ground_set, require_finite

DEFAULT_COST_ALPHA = 1.0 / 20.0


@dataclass(frozen=True, eq=False)
class Graph:
    """Compressed adjacency with per-node costs, each finite and positive.

    ``indices[indptr[v]:indptr[v+1]]`` are the neighbors of ``v`` (out-neighbors
    in directed mode). Undirected edges are stored in both directions, which
    is checked here; self loops are dropped by ``from_edges`` and rejected
    here. ``orig_ids[v]`` maps a dense id back to the id found in the source
    file, when the graph came from one. The adjacency arrays are checked
    once and then held as read-only views.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    directed: bool = False
    costs: np.ndarray = None
    orig_ids: np.ndarray = None

    # the (indptr, indices, n, directed) that passed the adjacency checks;
    # dataclasses.replace carries it over, so a copy that keeps those arrays
    # checks only its other fields
    _checked: tuple = field(default=None, repr=False)

    def __post_init__(self):
        if self.n < 0:
            raise InputError("node count must be non-negative")
        checked = self._checked
        if not (checked is not None and checked[0] is self.indptr
                and checked[1] is self.indices and checked[2:] == (self.n, self.directed)):
            self._check_adjacency()
        costs = np.ones(self.n) if self.costs is None else np.asarray(self.costs, np.float64)
        if not (np.isfinite(costs).all() and (costs > 0).all()):
            raise InputError("costs must be finite and positive")
        object.__setattr__(self, "costs", costs)
        if self.orig_ids is not None:
            orig = np.asarray(self.orig_ids)
            if orig.shape != (self.n,) or (orig.dtype.kind not in "iu" and orig.size):
                raise InputError("orig_ids must hold one integer id per node")

    def _check_adjacency(self):
        for name in ("indptr", "indices"):
            arr = np.asarray(getattr(self, name))
            if arr.ndim != 1:
                raise InputError(f"{name} must be a 1-D array")
            if arr.dtype.kind not in "iu" and arr.size:
                raise InputError(f"{name} must hold integers, got dtype {arr.dtype}")
            if arr.dtype.kind != "i":
                # an empty list converts to floats; unsigned arrays would wrap
                # in the checks below (values past 2^63 become negative here)
                arr = arr.astype(np.int64)
            object.__setattr__(self, name, arr)
        if len(self.indptr) != self.n + 1:
            raise InputError("indptr length must be n + 1")
        if (self.indptr[0] != 0 or self.indptr[-1] != self.indices.size
                or np.any(np.diff(self.indptr) < 0)):
            raise InputError("indptr must rise from 0 to the length of indices")
        if self.indices.size and (self.indices.min() < 0 or self.indices.max() >= self.n):
            raise InputError("neighbor id out of range")
        key = _arc_key(self.n)
        src = np.repeat(np.arange(self.n, dtype=key), np.diff(self.indptr))
        if np.any(self.indices == src):
            raise InputError("self loops are not allowed")
        if not self.directed:
            # symmetric iff the arcs u -> v and their reversals v -> u are
            # the same multiset: compare them as sorted keys, built in place
            dst = self.indices.astype(key)
            rev = dst * key(self.n)
            rev += src
            rev.sort()
            src *= key(self.n)
            src += dst
            if np.any(src[1:] < src[:-1]):  # rows with unsorted neighbours
                src.sort()
            if not np.array_equal(src, rev):
                raise InputError("undirected adjacency must be symmetric")
        # read-only views, so that the checked arrays cannot change under a copy
        indptr, indices = _read_only(self.indptr), _read_only(self.indices)
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "_checked", (indptr, indices, self.n, self.directed))

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    @property
    def num_edges(self) -> int:
        return int(len(self.indices)) if self.directed else int(len(self.indices)) // 2

    def cost_fn(self):
        """Callable view of the cost vector, for the pruners and solvers:
        ``fn(v) == float(costs[v])``, and InputError for an id outside
        ``[0, n)``. ``fn.cost_vector`` is the vector itself, which
        ``checked_costs`` reads in one gather per batch of ids."""
        costs, n = self.costs, self.n

        def fn(v: int) -> float:
            if not 0 <= v < n:
                raise outside_ground_set(v, n)
            return float(costs[v])

        fn.cost_vector = costs
        return fn

    def edge_array(self) -> np.ndarray:
        """Unique edges as an (E, 2) array: ``u < v`` pairs when undirected,
        every stored arc when directed."""
        if self.n == 0 or self.indices.size == 0:
            return np.empty((0, 2), dtype=np.int64)
        src = np.repeat(np.arange(self.n, dtype=np.int64), self.degrees)
        dst = self.indices.astype(np.int64)
        if self.directed:
            return np.column_stack([src, dst])
        keep = src < dst
        return np.column_stack([src[keep], dst[keep]])


def from_edges(n: int, edges, directed: bool = False) -> Graph:
    """Build a Graph from (u, v) integer pairs with ids in [0, n): an
    iterable of pairs or an (E, 2) array.

    Duplicate edges are collapsed (and, undirected, reversed ones) and self
    loops dropped. Rows list their neighbours in ascending order.
    """
    if n < 0:
        raise InputError("node count must be non-negative")
    try:
        arr = np.array(edges if isinstance(edges, np.ndarray) else list(edges))
    except ValueError:
        raise InputError("edges must be (u, v) pairs") from None
    if arr.size == 0:
        arr = np.empty((0, 2), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise InputError("edges must be (u, v) pairs")
    if arr.dtype.kind not in "iuO":
        raise InputError(f"node ids must be integers, got dtype {arr.dtype}")
    bad = (arr < 0) | (arr >= n)  # object arrays hold ids past int64
    if bad.any():
        u, v = arr[np.flatnonzero(bad.any(axis=1))[0]]
        raise InputError(f"edge ({u}, {v}) outside node range [0, {n})")
    return _csr(n, arr[:, 0].astype(np.int64), arr[:, 1].astype(np.int64), directed)


# arc keys u * n + v stay below 2^63 for every n up to this
_MAX_KEY_N = 3_037_000_499


def _csr(n: int, src: np.ndarray, dst: np.ndarray, directed: bool, orig_ids=None) -> Graph:
    """The Graph over [0, n) of the arcs src[i] -> dst[i] (int64 ids in
    range): self loops dropped, undirected edges stored both ways, and
    duplicate arcs collapsed."""
    if n > _MAX_KEY_N:
        raise InputError(f"node count {n} is too large")
    keep = src != dst
    if not keep.all():
        src, dst = src[keep], dst[keep]
    indptr, indices = _grouped(n, src, dst, both_ways=not directed)
    # valid by construction: ascending rows of heads in [0, n), no self
    # loops, and, undirected, every arc listed with its reverse
    indptr, indices = _read_only(indptr), _read_only(indices)
    return Graph(n, indptr, indices, directed, orig_ids=orig_ids,
                 _checked=(indptr, indices, n, directed))


def _read_only(arr: np.ndarray) -> np.ndarray:
    view = arr.view()
    view.flags.writeable = False
    return view


def _arc_key(n: int):
    """The dtype of arc keys ``u * n + v``: they fit in 32 bits up to
    n = 2^16, and sort twice as fast."""
    return np.uint32 if n <= 1 << 16 else np.int64


def _grouped(n: int, src: np.ndarray, dst: np.ndarray, both_ways: bool = False):
    """``(indptr, heads)``: the arcs src[i] -> dst[i] (integer ids in [0, n)),
    and dst[i] -> src[i] too when ``both_ways``, grouped into CSR rows of
    ascending int64 heads, an arc listed twice kept once. The keys go into
    one array, and row ``u`` starts at the first key of at least ``u * n``."""
    key = _arc_key(n)
    pairs = [(src, dst), (dst, src)] if both_ways else [(src, dst)]
    keys = np.empty(len(pairs) * src.size, dtype=key)
    for part, (tail, head) in zip(np.split(keys, len(pairs)), pairs):
        np.multiply(tail, n, out=part, casting="unsafe")
        np.add(part, head, out=part, casting="unsafe")
    keys.sort()
    fresh = np.empty(keys.size, dtype=bool)
    fresh[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
    if not fresh.all():
        keys = keys[fresh]
    indptr = np.empty(n + 1, dtype=np.int64)
    indptr[:n] = np.searchsorted(keys, np.arange(n, dtype=key) * key(n))  # below 2^32
    indptr[n] = keys.size
    heads = np.empty(keys.size, dtype=np.int64)
    np.floor_divide(keys, max(n, 1), out=heads)  # the tails, then v = key - u * n
    heads *= n
    np.subtract(keys, heads, out=heads)
    return indptr, heads


def _from_ids(ids: np.ndarray, directed: bool) -> Graph:
    """The Graph of the edges (ids[0], ids[1]), (ids[2], ids[3]), ... over
    non-negative int64 ids, re-indexed densely in sorted order of the ids."""
    orig, dense = _ranked(ids)
    return _csr(orig.size, dense[0::2], dense[1::2], directed, orig_ids=orig)


def _ranked(ids: np.ndarray):
    """``np.unique(ids, return_inverse=True)`` of non-negative int64 ids,
    the inverse as int64: the distinct ids and each id's rank among them."""
    if ids.size and (top := int(ids.max())) < 2 * ids.size:
        # a presence mask of at most 2 bytes per id, a quarter of the ids'
        # (with the ranks, less than np.unique's temporaries at any top)
        present = np.zeros(top + 1, dtype=bool)
        present[ids] = True
        rank = np.cumsum(present, dtype=np.int64)
        rank -= 1
        return np.flatnonzero(present), rank[ids]
    orig, dense = np.unique(ids, return_inverse=True)
    return orig, dense.astype(np.int64, copy=False)


_MAX_ID = 2**63 - 1


def parse_edge_list(lines, directed: bool = False) -> Graph:
    """Parse whitespace-separated "u v" lines into a densely indexed Graph.

    ``lines`` holds ``str`` or UTF-8 ``bytes`` lines. ``#`` lines are
    comments and blank lines are skipped; ids are anything ``int()`` reads
    that lies in [0, 2^63). Node ids are remapped to 0..n-1 in sorted order
    of the original ids; the mapping is kept on ``graph.orig_ids``. A
    malformed line, or one that is not UTF-8, raises ParseError with its
    1-based line number, and the first such line is the one reported.
    """
    ids = []
    for line_no, line in enumerate(lines, start=1):
        stripped = _decoded(line, line_no).strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise ParseError(f"expected two node ids, got {len(parts)} tokens", line_no)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"non-integer node id in {stripped!r}", line_no) from None
        if u < 0 or v < 0:
            raise ParseError("node ids must be non-negative", line_no)
        if max(u, v) > _MAX_ID:
            raise ParseError(f"node id {max(u, v)} is larger than 2^63 - 1", line_no)
        ids += (u, v)
    return _from_ids(np.array(ids, dtype=np.int64), directed)


def _decoded(line, line_no: int) -> str:
    if not isinstance(line, bytes):
        return line
    try:
        return line.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"byte {line[exc.start]:#04x} is not UTF-8 text", line_no) from None


_MAX_DIGITS = 18  # 10^18 - 1 < 2^63 - 1


def _fast_ids(data: bytes):
    """The node ids of an edge list, in file order, as one int64 array; or
    None unless numpy proves that ``parse_edge_list`` would accept every
    line, so that the caller falls back to it.

    Proven well formed: every byte is an ASCII digit, space, tab, CR or LF;
    every CR starts a CRLF (a lone CR is a line break to text mode); every
    line holds zero or two tokens; no token has more than 18 digits. Each
    temporary over the bytes holds one byte per byte.
    """
    buf = np.frombuffer(data, dtype=np.uint8)
    digit = buf - np.uint8(ord("0")) <= 9
    newline = buf == ord("\n")
    cr = buf == ord("\r")
    known = digit | newline
    known |= cr
    known |= buf == ord(" ")
    known |= buf == ord("\t")
    if not known.all():
        return None
    del known
    cr = np.flatnonzero(cr)
    if cr.size and (cr[-1] + 1 == buf.size or np.any(buf[cr + 1] != ord("\n"))):
        return None
    # +1 where a run of digits starts, -1 just past where it ends
    step = np.diff(digit.view(np.int8), prepend=np.int8(0), append=np.int8(0))
    ends = np.flatnonzero(step == -1)
    # token starts and line breaks in file order, and which are tokens
    newline |= step[:-1] == 1
    events = np.flatnonzero(newline)
    del digit, newline, step
    token = np.flatnonzero(buf.take(events) != ord("\n"))
    if token.size == 0:
        return np.empty(0, dtype=np.int64)
    # two tokens per line: no line break inside a pair, one or more between pairs
    if (token.size % 2 or np.any(token[1::2] - token[0::2] != 1)
            or np.any(token[2::2] - token[1:-1:2] == 1)):
        return None
    starts = events.take(token)
    del events, token
    widths = ends - starts
    width, short = int(widths.max()), int(widths.min())
    if width > _MAX_DIGITS:
        return None
    # Horner's rule over right-aligned digit columns, one column per pass; a
    # column left of a token's start reads some other byte, masked to 0
    ids = np.zeros(starts.size, dtype=np.int64)
    pos = ends - width
    for offset in range(width, 0, -1):
        column = buf.take(pos, mode="clip")
        column -= ord("0")
        if offset > short:
            column *= widths >= offset
        ids *= 10
        ids += column
        pos += 1
    return ids


def _read_bytes(path) -> bytes:
    if not str(path).endswith(".gz"):
        with open(path, "rb") as fh:
            return fh.read()
    try:
        with gzip.open(path, "rb") as fh:
            return fh.read()
    except (gzip.BadGzipFile, EOFError, zlib.error) as exc:
        raise ParseError(f"corrupt gzip data: {exc}") from None


def load_edge_list(path, directed: bool = False) -> Graph:
    """Read an edge-list file (gzip when the name ends in ``.gz``) in the
    format of ``parse_edge_list``, giving the same Graph or ParseError.

    The whole file is read as bytes. A file that holds only ASCII digits
    and blanks in two-id lines is parsed by numpy; any other file (comments,
    signs, other characters or line breaks, a line without exactly two ids,
    an id past 18 digits) goes through ``parse_edge_list``'s line loop.
    """
    data = _read_bytes(path)
    ids = _fast_ids(data)
    if ids is None:
        return parse_edge_list(data.splitlines(), directed=directed)
    return _from_ids(ids, directed)


def write_edge_list(graph: Graph, path) -> None:
    """Write the graph in the same format parse_edge_list reads (dense ids)."""
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "wt") as fh:
        for u, v in graph.edge_array():
            fh.write(f"{u} {v}\n")


def read_id_file(path) -> set:
    """Read a newline-delimited element-id file (UTF-8 text, any line
    breaks). A line that is not UTF-8 or not an integer raises ParseError."""
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    ids = set()
    for line_no, line in enumerate(lines, start=1):
        stripped = _decoded(line, line_no).strip()
        if not stripped:
            continue
        try:
            ids.add(int(stripped))
        except ValueError:
            raise ParseError(f"non-integer id {stripped!r}", line_no) from None
    return ids


def write_id_file(ids, path) -> None:
    with open(path, "wt") as fh:
        for v in sorted(ids):
            fh.write(f"{v}\n")


def graph_metadata(graph: Graph) -> dict:
    costs = graph.costs
    return {
        "n": graph.n,
        "m": graph.num_edges,
        "directed": graph.directed,
        "cost_min": float(costs.min()) if graph.n else None,
        "cost_max": float(costs.max()) if graph.n else None,
        "cost_mean": float(costs.mean()) if graph.n else None,
        "has_orig_ids": graph.orig_ids is not None,
    }


def assign_knapsack_costs(graph: Graph, cost_alpha: float = DEFAULT_COST_ALPHA,
                          mode: str = "degree") -> Graph:
    """Return a copy of the graph with knapsack costs assigned.

    In "degree" mode, cost(v) = cost_beta / n * (deg(v) - cost_alpha) with
    cost_beta chosen as the smallest value that makes the minimum cost
    exactly 1. A directed graph prices its nodes by out-degree. "unit" mode
    sets every cost to 1 (the size-constraint case). ``cost_alpha`` must be
    finite, and nodes whose degree does not exceed it make the degree
    formula degenerate: both raise InputError. A ``cost_alpha`` below the
    smallest degree prices every node: -1 prices the sinks (out-degree 0)
    of a directed graph, and when it has one a node of out-degree d costs
    d + 1.
    """
    if mode == "unit":
        return dataclasses.replace(graph, costs=np.ones(graph.n, dtype=np.float64))
    if mode != "degree":
        raise InputError(f"unknown cost mode {mode!r}")
    require_finite(cost_alpha=cost_alpha)
    if graph.n == 0:
        raise InputError("cannot assign degree costs to an empty graph")
    degs = graph.degrees.astype(np.float64)
    shifted = degs - cost_alpha
    if shifted.min() <= 0:
        low = int(np.count_nonzero(shifted <= 0))
        sinks = (" A directed graph prices nodes by out-degree; a cost_alpha below"
                 " the smallest degree (for example --cost-alpha -1) prices its"
                 " sinks." if graph.directed else "")
        raise InputError(
            f"degree cost model degenerate: {low} of {graph.n} nodes have degree"
            f" <= cost_alpha = {cost_alpha} (smallest degree {int(degs.min())}).{sinks}")
    costs = shifted / shifted.min()
    return dataclasses.replace(graph, costs=costs)


def generate(kind: str, n: int, params: dict | None = None, seed: int = 0) -> Graph:
    """Generate a reproducible synthetic graph.

    Kinds: "erdos_renyi" (params: p), "barabasi_albert" (params: m_attach),
    "star", "path". The seed must be a non-negative integer.
    """
    if n < 1:
        raise InputError("n must be >= 1")
    if n > _MAX_KEY_N:  # _csr's limit, checked before any edge is made
        raise InputError(f"node count {n} is too large")
    try:
        seed = operator.index(seed)
    except TypeError:
        raise InputError(f"seed must be an integer, got {seed!r}") from None
    if seed < 0:
        raise InputError("seed must be non-negative")
    params = params or {}
    if kind == "star":
        return from_edges(n, ((0, i) for i in range(1, n)))
    if kind == "path":
        return from_edges(n, ((i, i + 1) for i in range(n - 1)))
    if kind == "erdos_renyi":
        p = params.get("p")
        if p is None or not 0.0 <= p <= 1.0:
            raise InputError("erdos_renyi requires p in [0, 1]")
        rng = np.random.default_rng(seed)
        edges = []
        for i in range(n - 1):
            draws = rng.random(n - i - 1)
            for off in np.nonzero(draws < p)[0]:
                edges.append((i, i + 1 + int(off)))
        return from_edges(n, edges)
    if kind == "barabasi_albert":
        m = params.get("m_attach")
        if m is None or m < 1 or m >= n:
            raise InputError("barabasi_albert requires 1 <= m_attach < n")
        rng = np.random.default_rng(seed)
        edges = []
        repeated = []
        targets = list(range(m))
        for source in range(m, n):
            edges.extend((source, t) for t in targets)
            repeated.extend(targets)
            repeated.extend([source] * m)
            chosen = set()
            while len(chosen) < m:
                chosen.add(repeated[int(rng.integers(len(repeated)))])
            targets = sorted(chosen)
        return from_edges(n, edges)
    raise InputError(f"unknown generator kind {kind!r}")
