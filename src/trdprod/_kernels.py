"""Search kernels behind the exact solvers.

Two resumable loops live here: a base-3 odometer that scans every labeling,
and one explicit-stack branch-and-bound search with two objectives, chosen by
state slot 10: MIN_WEIGHT (a labeling lighter than the incumbent) and
MAX_TWOS (the most 2-labels at a fixed weight). Both run over Python lists
of ints, and every vertex set is a Python-int mask, so a graph may have any
number of vertices.

A kernel returns after a node budget with its scalar state packed into one
list, st, and a second call resumes exactly where the first stopped. The
solver reads the clock between such chunks, which is how wall-clock budgets
are kept without a clock call per node. Tracers read the node count (slot
4) and the early-exit flag (slot 9) from the state list, which is argument
11 of the search and argument 5 of the scan.

The search keeps its vertex state in per-depth stacks; slot d of each holds
the state once order[0..d-1] (and any fixed labels) are decided. Four are
mask stacks: cov (the union of the neighbourhoods of decided 2-labels), pos
(decided positive labels), un0 (decided 0s with no decided 2-neighbour,
i.e. outside cov) and unp (decided positives with no decided positive
neighbour). The kernel also writes the branching order as it goes: order[d]
is the vertex branched on at depth d, order[d:k] lists the vertices still
undecided there in some order, and und[d] is the same set as a mask. The
caller fills slot 0 from the fixed labels, with order listing every free
vertex and und[0] their mask. A child's masks come from slot d in a few
mask operations and are written to slot d+1 only when the child survives,
so backtracking only resets a label.

A child is dead when some unsatisfied vertex (in un0 or unp) has no
undecided neighbour left. No live node holds such a vertex, so only the
vertices the new label touched, the branch vertex and its neighbours, need
the test. Otherwise two lower bounds on the weight still to come decide,
each evaluated lazily: the cover bound on the unsatisfied decided vertices,
and the Roman cover bound on every vertex not yet positive or dominated by
a 2 (see _bnb). Each is first tried where it needs no loop, and only then
scans the undecided vertices order[d+1:k], stopping once the bound fits.
Every child gets the same verdict as from the fully evaluated bounds, so
the nodes visited and the witnesses found do not depend on where a scan
stops.

On entering depth d, the search picks its branch vertex fail-first. The
unsatisfied vertex with the fewest undecided neighbours (lowest index on
ties) is the one closest to a dead end, and the search branches on its
lowest-index undecided neighbour; with no unsatisfied vertex, on the
lowest-index undecided vertex. The choice is swapped into order[d], and
und[d+1] drops its bit. A fixed order by degree is plain index order on a
regular graph, and can leave an unsatisfied vertex with one undecided
neighbour while the search branches elsewhere.

State slots:
    0 depth      1 weight      2 count of 2-labels   3 incumbent objective
    4 nodes done 5 status      6 branch count k      7 witness flag
    8 weight cap (MAX_TWOS only)                     9 early-exit flag
    10 objective (MIN_WEIGHT or MAX_TWOS)            11 largest degree
"""

from __future__ import annotations

RUNNING = 0
DONE = 1
FOUND = 2

# search objectives, selected by state slot 10
MIN_WEIGHT = 0
MAX_TWOS = 1

# There is no compiled kernel path; the benchmark records this flag.
USE_NUMBA = False

_popcount = int.bit_count


def _lowbit(x):
    """Index of the lowest set bit of a nonzero mask."""
    return (x & -x).bit_length() - 1


def _bnb(adj_mask, labels, order, trial, cov, pos, un0, unp, bit, und,
         best_labels, st, node_budget):
    """Depth-first search over the labelings of order[0..k-1], in the mode of st[10].

    MIN_WEIGHT looks for a labeling of weight strictly below st[3]; MAX_TWOS
    maximizes the 2-count st[3] among labelings of weight exactly st[8].
    Branch vertices are chosen fail-first as the search descends (see the
    module docstring); labels are tried as 0, 2, 1. With the early-exit
    flag the first strict improvement ends the search, which turns the
    kernel into the feasibility test of the lexicographic witness
    reconstruction.

    room is the weight a child may still add; a child is pruned when either
    lower bound on that weight exceeds it.

    The cover bound counts unsatisfied decided vertices: each 0 in un0 needs
    a future 2 among its undecided neighbours and each positive in unp a
    future positive. One undecided vertex serves at most cmax0 of un0 and
    cmaxp of unp, so at least a = ceil(|un0|/cmax0) twos and
    b = ceil(|unp|/cmaxp) positives are still to come; twos may double as
    positives, hence 2a + max(0, b - a). The bound only grows as a cmax
    falls, and 1 <= cmax <= |un0| (or |unp|), so it is first tried at those
    limits. The undecided vertices are scanned only when the two disagree,
    and only until the running maxima make the bound fit.

    The Roman cover bound counts S, the vertices neither positive nor in
    cov: un0 plus Q, the undecided vertices outside cov. In any completion
    each vertex of S is positive itself (only possible in Q) or gets a
    future 2-neighbour. A future 1 serves at most one vertex of S, itself. A
    future 2 at u serves at most c(u) = |N(u) & S| + [u in Q], less one when
    no neighbour of u outside S can be positive (no decided positive and no
    undecided vertex in cov): u's own positive partner then lies in S and
    serves itself. With cmax the largest c(u) over the undecided vertices,
    the weight still to come is at least |S| when cmax <= 2 and
    ceil(2|S|/cmax) otherwise. The bound never exceeds |S|, so it is skipped
    while |S| fits. Otherwise it fits once some c(u) reaches
    need = ceil(2|S|/room). Since c(u) <= min(|S|, deg u), a child with
    need above |S| (room < 2) or above the largest degree st[11] is pruned
    without a scan, and the scan stops at the first c(u) >= need.
    """
    n = len(labels)
    k = st[6]
    depth = st[0]
    weight = st[1]
    v2 = st[2]
    best = st[3]
    cap = st[8]
    early = st[9]
    mode = st[10]
    maxdeg = st[11]
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
                if mode == MIN_WEIGHT:
                    improved = weight < best
                    if improved:
                        best = weight
                else:
                    improved = weight == cap and v2 > best
                    if improved:
                        best = v2
                if improved:
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
        if t == 0:
            # Entering this depth: choose order[depth] fail-first. Every
            # unsatisfied vertex has an undecided neighbour here, so a count
            # of 1 is the least.
            ud = und[depth]
            tight = -1
            fewest = n + 1
            r = un0[depth] | unp[depth]
            while r:
                x = _lowbit(r)
                r ^= bit[x]
                c = _popcount(adj_mask[x] & ud)
                if c < fewest:
                    fewest = c
                    tight = x
                    if c == 1:
                        break
            nxt = _lowbit(ud if tight < 0 else adj_mask[tight] & ud)
            i = depth
            while order[i] != nxt:
                i += 1
            order[i] = order[depth]
            order[depth] = nxt
            und[depth + 1] = ud ^ bit[nxt]
        trial[depth] = t + 1
        lab = 0
        if t == 1:
            lab = 2
        elif t == 2:
            lab = 1
        nodes += 1
        w = weight + lab
        c2 = v2
        if lab == 2:
            c2 += 1
        if mode == MIN_WEIGHT:
            if w >= best:
                continue
            room = best - 1 - w
        else:
            if w > cap:
                continue
            rem = k - depth - 1
            if w + 2 * rem < cap:
                continue
            twos_room = (cap - w) // 2
            if c2 + (rem if rem < twos_room else twos_room) <= best:
                continue
            room = cap - w
        # Masks of the child, slot depth+1 (see the module docstring).
        e = depth + 1
        v = order[depth]
        nv = adj_mask[v]
        vb = und[depth] ^ und[e]
        cv = cov[depth]
        po = pos[depth]
        u0 = un0[depth]
        up = unp[depth]
        if lab == 0:
            if not cv & vb:
                u0 |= vb
        else:
            if not nv & po:
                up |= vb
            up &= ~nv
            po |= vb
            if lab == 2:
                u0 &= ~nv
                cv |= nv
        # Dead test: only a vertex the new label touched can have lost its
        # last undecided neighbour.
        ud = und[e]
        dead = False
        r = (u0 | up) & (nv | vb)
        while r:
            x = _lowbit(r)
            r ^= bit[x]
            if not adj_mask[x] & ud:
                dead = True
                break
        if dead:
            continue
        nu = _popcount(u0)
        np_ = _popcount(up)
        a = 1 if nu > 0 else 0
        b = 1 if np_ > 0 else 0
        if 2 * a + (b - a if b > a else 0) > room:
            continue
        if 2 * nu + (np_ - nu if np_ > nu else 0) > room:
            fits = False
            cmax0 = 1
            cmaxp = 1
            for i in range(e, k):
                m = adj_mask[order[i]]
                c0 = _popcount(m & u0)
                cp = _popcount(m & up)
                if c0 > cmax0 or cp > cmaxp:
                    if c0 > cmax0:
                        cmax0 = c0
                    if cp > cmaxp:
                        cmaxp = cp
                    a = (nu + cmax0 - 1) // cmax0
                    b = (np_ + cmaxp - 1) // cmaxp
                    if 2 * a + (b - a if b > a else 0) <= room:
                        fits = True
                        break
            if not fits:
                continue
        q = ud & ~cv
        s = q | u0
        ns = _popcount(s)
        if ns > room:
            if room < 2:
                continue
            need = (2 * ns + room - 1) // room
            if need > maxdeg:
                continue
            fits = False
            # the neighbours that can be a 2's positive partner outside S
            outside = po | (ud & cv)
            for i in range(e, k):
                u = order[i]
                m = adj_mask[u]
                c = _popcount(m & s)
                if c + 1 >= need:
                    if q & bit[u]:
                        c += 1
                    if not m & outside:
                        c -= 1
                    if c >= need:
                        fits = True
                        break
            if not fits:
                continue
        cov[e] = cv
        pos[e] = po
        un0[e] = u0
        unp[e] = up
        labels[v] = lab
        weight = w
        v2 = c2
        depth = e
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
        v2mask = 0
        posmask = 0
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
                if not adj_mask[v] & v2mask:
                    valid = False
                    break
            else:
                if not adj_mask[v] & posmask:
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


# Both search names bind the one B&B kernel, which the objective in state
# slot 10 steers; callers and tracers keep telling the two searches apart by
# name.
bnb_min_weight = bnb_max_twos = _bnb
brute_force_scan = _brute_force_scan
