"""Search kernels behind the exact solvers.

Three resumable loops live here: a base-3 odometer that scans every labeling,
and two explicit-stack branch-and-bound searches (minimum weight, and maximum
number of 2-labels at a fixed weight). By default they are compiled with
numba's @njit over numpy arrays and uint64 masks. When numba is missing, or
the environment variable TRD_PURE_PYTHON is set to a truthy value before
import, the identical source runs as plain Python over Python lists and ints:
indexing a list and masking Python ints costs far less than boxing numpy
scalars at every step. Callers build every container with kernel_array, so
each path gets the containers it runs fastest on.

All kernels operate on graphs of at most 64 vertices (one 64-bit mask per
row); callers enforce the limit. Scalar search state is packed into an int64
container so a search can be paused on a node budget and resumed, which is
how wall-clock budgets are enforced without calling the clock from compiled
code.

The searches keep their vertex state in four mask stacks. Slot d of each
holds the state once order[0..d-1] (and any fixed labels) are decided:
twos (decided 2-labels), pos (decided positive labels), un0 (decided 0s with
no decided 2-neighbour) and unp (decided positives with no decided positive
neighbour). reach[d], fixed per search, is the union of the neighbourhoods of
order[d:], the vertices still undecided at depth d. _child derives slot d+1
from slot d in a few mask operations, so backtracking only resets a label. A
child is dead when an unsatisfied vertex lies outside reach[d+1]; since no
live node holds such a vertex, that one test covers every vertex the new
label touched. Otherwise _child returns the cover bound, a loop over the
undecided suffix order[d+1:] only.

State slots:
    0 depth      1 weight      2 count of 2-labels   3 incumbent objective
    4 nodes done 5 status      6 branch count k      7 witness flag
    8 weight cap (max-2s kernel only)                9 early-exit flag
"""

from __future__ import annotations

import os

RUNNING = 0
DONE = 1
FOUND = 2


def _env_flag(name: str) -> bool:
    val = os.environ.get(name, "").strip().lower()
    return val not in ("", "0", "false", "no")


USE_NUMBA = not _env_flag("TRD_PURE_PYTHON")

if USE_NUMBA:
    try:
        from numba import njit as _njit
    except ImportError:
        USE_NUMBA = False

if USE_NUMBA:
    import numpy as np

    CONTAINERS = "numpy arrays"
    U64_0 = np.uint64(0)
    U64_1 = np.uint64(1)

    def _maybe_jit(fn):
        return _njit(cache=True)(fn)

    def kernel_array(values, dtype: str):
        """The values as a numpy array of the named dtype (int8, int32, int64, uint64)."""
        return np.array(list(values), dtype=dtype)
else:
    CONTAINERS = "Python lists"
    U64_0 = 0
    U64_1 = 1

    def _maybe_jit(fn):
        return fn

    def kernel_array(values, dtype: str):
        """The values as a list of Python ints; the dtype only matters under numba."""
        return list(values)


def _popcount(x):
    c = 0
    while x:
        x &= x - U64_1
        c += 1
    return c


def _child(d, lab, adj_mask, bit, order, twos, pos, un0, unp, reach):
    """Write stack slot d+1 for order[d] labelled lab; return the cover bound.

    The bound is an admissible count of weight still to come, or -1 when a
    decided vertex is unsatisfied and none of its neighbours is undecided.
    Unsatisfied 0-vertices each need a future 2 among their undecided
    neighbours; one future 2 helps at most cmaxu of them, so at least
    ceil(|U|/cmaxu) twos are still to come. Unsatisfied positive vertices
    need future positives the same way; twos may double as those, hence
    2*a + max(0, b - a).
    """
    v = order[d]
    nv = adj_mask[v]
    tw = twos[d]
    po = pos[d]
    u0 = un0[d]
    up = unp[d]
    if lab == 0:
        if (nv & tw) == U64_0:
            u0 |= bit[v]
    else:
        if (nv & po) == U64_0:
            up |= bit[v]
        up &= ~nv
        po |= bit[v]
        if lab == 2:
            u0 &= ~nv
            tw |= bit[v]
    e = d + 1
    twos[e] = tw
    pos[e] = po
    un0[e] = u0
    unp[e] = up
    if ((u0 | up) & ~reach[e]) != U64_0:
        return -1
    if u0 == U64_0 and up == U64_0:
        return 0
    cmaxu = 0
    cmaxp = 0
    for i in range(e, len(order)):
        m = adj_mask[order[i]]
        cu = _popcount(m & u0)
        if cu > cmaxu:
            cmaxu = cu
        cp = _popcount(m & up)
        if cp > cmaxp:
            cmaxp = cp
    a = 0
    if u0 != U64_0:
        a = (_popcount(u0) + cmaxu - 1) // cmaxu
    b = 0
    if up != U64_0:
        b = (_popcount(up) + cmaxp - 1) // cmaxp
    extra = 2 * a
    if b > a:
        extra += b - a
    return extra


def _bnb_min_weight(adj_mask, bit, labels, order, trial, twos, pos, un0, unp,
                    reach, best_labels, st, node_budget):
    """Depth-first search for a labeling of weight strictly below st[3].

    Branch vertices come in the caller-chosen order (descending degree);
    labels are tried as 0, 2, 1. With the early-exit flag the first strict
    improvement ends the search, which turns the kernel into a feasibility
    test against a weight cap.
    """
    n = len(labels)
    depth = st[0]
    weight = st[1]
    v2 = st[2]
    best = st[3]
    k = st[6]
    early = st[9]
    nodes = 0
    status = RUNNING
    while True:
        if nodes >= node_budget:
            break
        if depth < 0:
            status = DONE
            break
        if depth == k or trial[depth] == 3:
            if depth == k:
                if weight < best:
                    best = weight
                    for i in range(n):
                        best_labels[i] = labels[i]
                    st[7] = 1
                    if early == 1:
                        status = FOUND
                        break
            else:
                trial[depth] = 0
            depth -= 1
            if depth >= 0:
                lab = labels[order[depth]]
                labels[order[depth]] = -1
                weight -= lab
                if lab == 2:
                    v2 -= 1
            continue
        t = trial[depth]
        trial[depth] = t + 1
        lab = 0
        if t == 1:
            lab = 2
        elif t == 2:
            lab = 1
        nodes += 1
        if weight + lab >= best:
            continue
        extra = _child(depth, lab, adj_mask, bit, order, twos, pos, un0, unp, reach)
        if extra < 0 or weight + lab + extra >= best:
            continue
        labels[order[depth]] = lab
        weight += lab
        if lab == 2:
            v2 += 1
        depth += 1
    st[0] = depth
    st[1] = weight
    st[2] = v2
    st[3] = best
    st[4] += nodes
    st[5] = status
    return status


def _bnb_max_twos(adj_mask, bit, labels, order, trial, twos, pos, un0, unp,
                  reach, best_labels, st, node_budget):
    """Among valid labelings of weight exactly st[8], maximize the 2-count.

    Incumbent objective is st[3]; with the early-exit flag the kernel stops
    at the first labeling whose 2-count beats it, which makes it the
    feasibility test used by the lexicographic witness reconstruction.
    """
    n = len(labels)
    depth = st[0]
    weight = st[1]
    v2 = st[2]
    best = st[3]
    k = st[6]
    cap = st[8]
    early = st[9]
    nodes = 0
    status = RUNNING
    while True:
        if nodes >= node_budget:
            break
        if depth < 0:
            status = DONE
            break
        if depth == k or trial[depth] == 3:
            if depth == k:
                if weight == cap and v2 > best:
                    best = v2
                    for i in range(n):
                        best_labels[i] = labels[i]
                    st[7] = 1
                    if early == 1:
                        status = FOUND
                        break
            else:
                trial[depth] = 0
            depth -= 1
            if depth >= 0:
                lab = labels[order[depth]]
                labels[order[depth]] = -1
                weight -= lab
                if lab == 2:
                    v2 -= 1
            continue
        t = trial[depth]
        trial[depth] = t + 1
        lab = 0
        if t == 1:
            lab = 2
        elif t == 2:
            lab = 1
        nodes += 1
        w = weight + lab
        if w > cap:
            continue
        rem = k - depth - 1
        if w + 2 * rem < cap:
            continue
        room = (cap - w) // 2
        c2 = v2
        if lab == 2:
            c2 += 1
        if c2 + (rem if rem < room else room) <= best:
            continue
        extra = _child(depth, lab, adj_mask, bit, order, twos, pos, un0, unp, reach)
        if extra < 0 or w + extra > cap:
            continue
        labels[order[depth]] = lab
        weight = w
        v2 = c2
        depth += 1
    st[0] = depth
    st[1] = weight
    st[2] = v2
    st[3] = best
    st[4] += nodes
    st[5] = status
    return status


def _brute_force_scan(adj_mask, bit, digits, best_labels, maxv2_table, st, step_budget):
    """Scan labelings in lexicographic order (vertex 0 most significant).

    Tracks the minimum valid weight with its first witness (which is the
    lexicographically smallest optimum, since ties never replace), and per
    weight the maximum 2-count over valid labelings.

    State slots here: 0 best weight, 1 witness flag, 2 labelings done, 3 status.
    """
    n = len(digits)
    best = st[0]
    steps = 0
    status = RUNNING
    while steps < step_budget:
        w = 0
        v2mask = U64_0
        posmask = U64_0
        for v in range(n):
            d = digits[v]
            w += d
            if d == 2:
                v2mask |= bit[v]
            if d >= 1:
                posmask |= bit[v]
        valid = True
        for v in range(n):
            if digits[v] == 0:
                if (adj_mask[v] & v2mask) == U64_0:
                    valid = False
                    break
            else:
                if (adj_mask[v] & posmask) == U64_0:
                    valid = False
                    break
        if valid:
            v2c = _popcount(v2mask)
            if maxv2_table[w] < v2c:
                maxv2_table[w] = v2c
            if w < best:
                best = w
                for i in range(n):
                    best_labels[i] = digits[i]
                st[1] = 1
        steps += 1
        i = n - 1
        while i >= 0 and digits[i] == 2:
            digits[i] = 0
            i -= 1
        if i < 0:
            status = DONE
            break
        digits[i] += 1
    st[0] = best
    st[2] += steps
    st[3] = status
    return status


# Rebind helpers first so the kernels' global lookups resolve to compiled
# versions under numba; the *_py aliases keep the uncompiled entry points
# reachable for parity tests. Without numba the masks are Python ints, whose
# own bit_count replaces the loop.
_popcount = _maybe_jit(_popcount) if USE_NUMBA else int.bit_count
_child = _maybe_jit(_child)

bnb_min_weight_py = _bnb_min_weight
bnb_max_twos_py = _bnb_max_twos
brute_force_scan_py = _brute_force_scan

bnb_min_weight = _maybe_jit(_bnb_min_weight)
bnb_max_twos = _maybe_jit(_bnb_max_twos)
brute_force_scan = _maybe_jit(_brute_force_scan)
