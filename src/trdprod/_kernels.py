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


def _assign(v, lab, labels, cnt2, cntpos, cntun, nbr_ptr, nbr_idx):
    labels[v] = lab
    for e in range(nbr_ptr[v], nbr_ptr[v + 1]):
        w = nbr_idx[e]
        cntun[w] -= 1
        if lab == 2:
            cnt2[w] += 1
        if lab >= 1:
            cntpos[w] += 1


def _unassign(v, labels, cnt2, cntpos, cntun, nbr_ptr, nbr_idx):
    lab = labels[v]
    for e in range(nbr_ptr[v], nbr_ptr[v + 1]):
        w = nbr_idx[e]
        cntun[w] += 1
        if lab == 2:
            cnt2[w] -= 1
        if lab >= 1:
            cntpos[w] -= 1
    labels[v] = -1
    return lab


def _local_dead(v, lab, labels, cnt2, cntpos, cntun, nbr_ptr, nbr_idx):
    # A vertex dies the moment its last neighbor is decided without satisfying
    # it: 0-labels need a 2-neighbor, positive labels need a positive neighbor.
    if lab == 0:
        if cnt2[v] == 0 and cntun[v] == 0:
            return True
    else:
        if cntpos[v] == 0 and cntun[v] == 0:
            return True
    for e in range(nbr_ptr[v], nbr_ptr[v + 1]):
        w = nbr_idx[e]
        lw = labels[w]
        if lw == 0:
            if cnt2[w] == 0 and cntun[w] == 0:
                return True
        elif lw >= 1:
            if cntpos[w] == 0 and cntun[w] == 0:
                return True
    return False


def _cover_bound(labels, cnt2, cntpos, adj_mask, bit):
    """Admissible extra-weight bound, or -1 when the node is infeasible.

    Unsatisfied 0-vertices each need a future 2 among their undecided
    neighbors; one future 2 helps at most cmaxu of them, so at least
    ceil(|U|/cmaxu) twos are still to come. Unsatisfied positive vertices
    need future positives the same way; twos may double as those, hence
    2*a + max(0, b - a).
    """
    n = len(labels)
    umask = U64_0
    pmask = U64_0
    for v in range(n):
        l = labels[v]
        if l == 0:
            if cnt2[v] == 0:
                umask |= bit[v]
        elif l > 0:
            if cntpos[v] == 0:
                pmask |= bit[v]
    if umask == U64_0 and pmask == U64_0:
        return 0
    cmaxu = 0
    cmaxp = 0
    for v in range(n):
        if labels[v] < 0:
            m = adj_mask[v]
            cu = _popcount(m & umask)
            if cu > cmaxu:
                cmaxu = cu
            cp = _popcount(m & pmask)
            if cp > cmaxp:
                cmaxp = cp
    nu = _popcount(umask)
    npos = _popcount(pmask)
    if nu > 0 and cmaxu == 0:
        return -1
    if npos > 0 and cmaxp == 0:
        return -1
    a = 0
    if nu > 0:
        a = (nu + cmaxu - 1) // cmaxu
    b = 0
    if npos > 0:
        b = (npos + cmaxp - 1) // cmaxp
    extra = 2 * a
    if b > a:
        extra += b - a
    return extra


def _bnb_min_weight(nbr_ptr, nbr_idx, adj_mask, bit, labels, order, trial,
                    cnt2, cntpos, cntun, best_labels, st, node_budget):
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
        if depth == k:
            if weight < best:
                best = weight
                for i in range(n):
                    best_labels[i] = labels[i]
                st[7] = 1
                if early == 1:
                    status = FOUND
                    break
            depth -= 1
            if depth >= 0:
                lab = _unassign(order[depth], labels, cnt2, cntpos, cntun,
                                nbr_ptr, nbr_idx)
                weight -= lab
                if lab == 2:
                    v2 -= 1
            continue
        t = trial[depth]
        if t == 3:
            trial[depth] = 0
            depth -= 1
            if depth >= 0:
                lab = _unassign(order[depth], labels, cnt2, cntpos, cntun,
                                nbr_ptr, nbr_idx)
                weight -= lab
                if lab == 2:
                    v2 -= 1
            continue
        trial[depth] = t + 1
        lab = 0
        if t == 1:
            lab = 2
        elif t == 2:
            lab = 1
        v = order[depth]
        nodes += 1
        if weight + lab >= best:
            continue
        _assign(v, lab, labels, cnt2, cntpos, cntun, nbr_ptr, nbr_idx)
        weight += lab
        if lab == 2:
            v2 += 1
        dead = _local_dead(v, lab, labels, cnt2, cntpos, cntun, nbr_ptr, nbr_idx)
        if not dead:
            extra = _cover_bound(labels, cnt2, cntpos, adj_mask, bit)
            if extra < 0 or weight + extra >= best:
                dead = True
        if dead:
            lab = _unassign(v, labels, cnt2, cntpos, cntun, nbr_ptr, nbr_idx)
            weight -= lab
            if lab == 2:
                v2 -= 1
            continue
        depth += 1
    st[0] = depth
    st[1] = weight
    st[2] = v2
    st[3] = best
    st[4] += nodes
    st[5] = status
    return status


def _bnb_max_twos(nbr_ptr, nbr_idx, adj_mask, bit, labels, order, trial,
                  cnt2, cntpos, cntun, best_labels, st, node_budget):
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
        if depth == k:
            if weight == cap and v2 > best:
                best = v2
                for i in range(n):
                    best_labels[i] = labels[i]
                st[7] = 1
                if early == 1:
                    status = FOUND
                    break
            depth -= 1
            if depth >= 0:
                lab = _unassign(order[depth], labels, cnt2, cntpos, cntun,
                                nbr_ptr, nbr_idx)
                weight -= lab
                if lab == 2:
                    v2 -= 1
            continue
        t = trial[depth]
        if t == 3:
            trial[depth] = 0
            depth -= 1
            if depth >= 0:
                lab = _unassign(order[depth], labels, cnt2, cntpos, cntun,
                                nbr_ptr, nbr_idx)
                weight -= lab
                if lab == 2:
                    v2 -= 1
            continue
        trial[depth] = t + 1
        lab = 0
        if t == 1:
            lab = 2
        elif t == 2:
            lab = 1
        v = order[depth]
        nodes += 1
        if weight + lab > cap:
            continue
        if weight + lab + 2 * (k - depth - 1) < cap:
            continue
        _assign(v, lab, labels, cnt2, cntpos, cntun, nbr_ptr, nbr_idx)
        weight += lab
        if lab == 2:
            v2 += 1
        dead = _local_dead(v, lab, labels, cnt2, cntpos, cntun, nbr_ptr, nbr_idx)
        if not dead:
            extra = _cover_bound(labels, cnt2, cntpos, adj_mask, bit)
            if extra < 0 or weight + extra > cap:
                dead = True
        if not dead:
            rem = k - depth - 1
            room = (cap - weight) // 2
            pot = v2 + (rem if rem < room else room)
            if pot <= best:
                dead = True
        if dead:
            lab = _unassign(v, labels, cnt2, cntpos, cntun, nbr_ptr, nbr_idx)
            weight -= lab
            if lab == 2:
                v2 -= 1
            continue
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
_assign = _maybe_jit(_assign)
_unassign = _maybe_jit(_unassign)
_local_dead = _maybe_jit(_local_dead)
_cover_bound = _maybe_jit(_cover_bound)

bnb_min_weight_py = _bnb_min_weight
bnb_max_twos_py = _bnb_max_twos
brute_force_scan_py = _brute_force_scan

bnb_min_weight = _maybe_jit(_bnb_min_weight)
bnb_max_twos = _maybe_jit(_bnb_max_twos)
brute_force_scan = _maybe_jit(_brute_force_scan)
