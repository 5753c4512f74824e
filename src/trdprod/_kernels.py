"""Search kernels behind the exact solvers.

Two loops live here: a plain base-3 odometer that scans every labeling in
one call, and one resumable explicit-stack branch-and-bound search with two
objectives, chosen by state slot 10: MIN_WEIGHT (a labeling lighter than
the incumbent) and MAX_TWOS (the most 2-labels at a fixed weight). The
solver's optimality proof is the one MIN_WEIGHT search. MAX_TWOS serves the
max-2s pass, the weight-constrained and frontier searches, and every
lexicographic witness probe, which asks with the early-exit flag for a
completion of the optimal weight with at least a given number of 2s. Both
loops run over Python lists of ints, and every vertex set is a Python-int
mask, so a graph may have any number of vertices.

The search returns after a node budget with its scalar state packed into
one list, st, and a second call resumes exactly where the first stopped.
The solver reads the clock between such chunks, which is how wall-clock
budgets are kept without a clock call per node. The scan has no budget: it
runs to its last labeling and keeps the best weight in slot 0 of its own
st and the count of labelings done in slot 2 (slot 1 is unused). Tracers
read the search's node count (slot 4) and early-exit flag (slot 9), and the
scan's labeling count, from the state list, which is argument 11 of the
search and argument 5 of the scan.

The search keeps its vertex state in per-depth stacks; slot d of each holds
the state once order[0..d-1] (and any fixed labels) are decided. Four are
mask stacks: cov (the union of the neighbourhoods of decided 2-labels), pos
(decided positive labels), un0 (decided 0s with no decided 2-neighbour,
i.e. outside cov) and unp (decided positives with no decided positive
neighbour). The kernel also writes the branching order as it goes: order[d]
is the vertex branched on at depth d, order[d:k] lists the vertices still
undecided there in some order, and und[d] is the same set as a mask. The
caller fills slot 0 from a fixed-label state, with order listing every
free vertex and und[0] their mask; solve._fix builds that state from a
list of labels and is the one Python copy of the child rule below. A child's
masks come from slot d in a few mask operations and are written to slot
d+1 only when the child survives, so backtracking only resets a label.

A child is dead when some unsatisfied vertex (in un0 or unp) has no
undecided neighbour left. No live node holds such a vertex, so only the
vertices the new label touched, the branch vertex and its neighbours, need
the test. Otherwise two lower bounds on the weight still to come decide:
a constant-time cover test on the unsatisfied decided vertices, then the
Roman cover bound, in its knapsack form (see _bnb), on every vertex not
yet positive or dominated by a 2. The knapsack bound is first tried where
it needs no loop, and only then scans the undecided vertices
order[d+1:k], stopping once the bound fits. Every child gets the same
verdict as from the fully evaluated bound, so the nodes visited and the
witnesses found do not depend on where a scan stops. The heap scan lives
here alone: the lexicographic probes' pre-check (solve._bound_refutes)
runs only the tests that need no scan.

On entering depth d, the search picks its branch vertex fail-first. The
unsatisfied vertex with the fewest undecided neighbours (lowest index on
ties) is the one closest to a dead end, and the search branches on its
lowest-index undecided neighbour; with no unsatisfied vertex, on the
lowest-index undecided vertex. The choice is swapped into order[d], and
und[d+1] drops its bit. A fixed order by degree is plain index order on a
regular graph, and can leave an unsatisfied vertex with one undecided
neighbour while the search branches elsewhere.

When the fail-first vertex has exactly one undecided neighbour, the search
tries only the labels there that can satisfy it: a 2 alone for a 0, a 2
then a 1 for a positive vertex. Every other child would leave it with no
undecided neighbour and fail the dead test at once, so the live children,
their order, and every value and witness are those of the full branching;
only the count of nodes falls. trial[d] is the next child of depth d:
0 on entry, where the branch vertex is chosen and the label 0 tried, 1
the label 2 and 2 the label 1; 3 or more means depth d is exhausted. A
forced positive vertex turns the entry into child 1, so a 2 then a 1. A
forced 0 turns it into child 3, a 2 that leaves trial[d] at 4.

State slots:
    0 depth      1 weight      2 count of 2-labels   3 incumbent objective
    4 nodes done 5 unused      6 branch count k      7 witness flag
    8 weight cap (MAX_TWOS only)                     9 early-exit flag
    10 objective (MIN_WEIGHT or MAX_TWOS)            11 largest degree
"""

from __future__ import annotations

from heapq import heapreplace

RUNNING = 0
DONE = 1
FOUND = 2

# search objectives, selected by state slot 10
MIN_WEIGHT = 0
MAX_TWOS = 1

# There is no compiled kernel path; the benchmark records this flag.
USE_NUMBA = False

_popcount = int.bit_count


def _bnb(adj_mask, labels, order, trial, cov, pos, un0, unp, bit, und,
         best_labels, st, node_budget):
    """Depth-first search over the labelings of order[0..k-1], in the mode of st[10].

    MIN_WEIGHT looks for a labeling of weight strictly below st[3]; MAX_TWOS
    maximizes the 2-count st[3] among labelings of weight exactly st[8].
    Branch vertices are chosen fail-first as the search descends (see the
    module docstring); labels are tried as 0, 2, 1, except on the last
    undecided neighbour of an unsatisfied vertex: 2 alone next to a 0, and
    2, 1 next to a positive vertex (trial[depth] encodes which). With the
    early-exit flag the first strict improvement ends the search, which
    turns the kernel into the feasibility test of the lexicographic witness
    reconstruction.

    room is the weight a child may still add; a child is pruned when either
    lower bound on that weight exceeds it.

    The cover test needs no scan: an unsatisfied 0 (in un0) needs a future
    2 and an unsatisfied positive (in unp) a future positive, so at least 2
    is still to come when un0 is not empty, and 1 when unp is not.

    The Roman cover bound counts S, the vertices neither positive nor in
    cov: un0 plus Q, the undecided vertices outside cov. In any completion
    each vertex of S is positive itself (only possible in Q) or gets a
    future 2-neighbour. A future 1 serves at most one vertex of S, itself. A
    future 2 at u serves at most c(u) = |N(u) & S| + [u in Q], less one when
    no neighbour of u outside S can be positive (no decided positive and no
    undecided vertex in cov): u's own positive partner then lies in S and
    serves itself. With T the future 2s and O the future 1s, that gives
    |S| <= |O| + sum_{u in T} c(u), and the weight still to come is
    W = 2|T| + |O| >= |S| - sum_{u in T} (c(u) - 2). A child fits only if
    W <= room, so |T| <= m = floor(room/2) and the excesses c(u) - 2 over T
    sum to at least gap = |S| - room. The bound is thus a knapsack: the
    child is pruned unless the m largest of max(0, c(u) - 2) over the
    undecided vertices sum to gap or more.

    This subsumes the plain form, W >= |S| when every c(u) <= 2 and
    ceil(2|S|/cmax) otherwise, with cmax the largest c(u): a fitting child
    has gap <= m (cmax - 2) <= room (cmax - 2)/2, that is cmax >= 2|S|/room,
    so every child the plain form prunes is pruned here too. The knapsack
    form also prunes when a few large c(u) cannot make up for many small
    ones, which the plain form, charging every 2 at cmax, lets through.

    It is evaluated in the order of its cost. Nothing is needed while
    gap <= 0. c(u) <= deg u, since either a neighbour of u outside S is
    missing from |N(u) & S| or the one subtracted offsets [u in Q]. So an
    excess is at most st[11] - 2, and a child with m (st[11] - 2) < gap is
    pruned without a scan; this covers room < 2. Otherwise a min-heap keeps
    the m largest excesses seen, with 0 for an empty place, and the scan
    stops once they sum to gap. A vertex whose excess cannot beat the
    heap's smallest, judged from |N(u) & S| + 1 >= c(u), is passed over
    before the two corrections.
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
        if depth == k or trial[depth] >= 3:
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
                x = (r & -r).bit_length() - 1
                r ^= bit[x]
                c = _popcount(adj_mask[x] & ud)
                if c < fewest:
                    fewest = c
                    tight = x
                    if c == 1:
                        break
            r = ud if tight < 0 else adj_mask[tight] & ud
            nxt = (r & -r).bit_length() - 1
            i = depth
            while order[i] != nxt:
                i += 1
            order[i] = order[depth]
            order[depth] = nxt
            und[depth + 1] = ud ^ bit[nxt]
            if fewest == 1:
                # nxt is tight's last undecided neighbour: skip the children
                # that would leave tight dead, a 0 and, under a 0, a 1
                t = 3 if un0[depth] & bit[tight] else 1
        trial[depth] = t + 1
        lab = 0
        if t & 1:
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
        vb = bit[v]
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
            x = (r & -r).bit_length() - 1
            r ^= bit[x]
            if not adj_mask[x] & ud:
                dead = True
                break
        if dead:
            continue
        if room < (2 if u0 else 1 if up else 0):
            continue
        q = ud & ~cv
        s = q | u0
        gap = _popcount(s) - room
        if gap > 0:
            m = room >> 1
            if m * (maxdeg - 2) < gap:
                continue
            fits = False
            # the neighbours that can be a 2's positive partner outside S
            outside = po | (ud & cv)
            # a min-heap of the m largest excesses so far, 0 standing
            # for an empty place
            top = [0] * m
            total = 0
            for i in range(e, k):
                u = order[i]
                mu = adj_mask[u]
                c = _popcount(mu & s)
                if c - 1 > top[0]:
                    if q & bit[u]:
                        c += 1
                    if not mu & outside:
                        c -= 1
                    if c - 2 > top[0]:
                        total += c - 2 - heapreplace(top, c - 2)
                        if total >= gap:
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
    return status


def _brute_force_scan(adj_mask, bit, digits, best_labels, maxv2_table, st):
    """Scan every labeling in lexicographic order (vertex 0 most significant).

    Tracks the minimum valid weight with its first witness (which is the
    lexicographically smallest optimum, since ties never replace), and per
    weight the maximum 2-count over valid labelings. One pass over a
    labeling builds its weight, its 2-count, its positive vertices and the
    unions of the positive and the 2-labelled neighbourhoods; it is valid
    when every positive vertex lies in the first union and every 0 in the
    second, the tests of labeling.is_total_roman_dominating.

    State slots here: 0 best weight, 2 labelings done; slot 1 is unused.
    """
    n = len(digits)
    full = (1 << n) - 1
    best = st[0]
    steps = 0
    while True:
        w = v2 = pos = near_pos = near_two = 0
        for v in range(n):
            d = digits[v]
            if d:
                w += d
                pos |= bit[v]
                near_pos |= adj_mask[v]
                if d == 2:
                    v2 += 1
                    near_two |= adj_mask[v]
        if not pos & ~near_pos and not full & ~pos & ~near_two:
            if maxv2_table[w] < v2:
                maxv2_table[w] = v2
            if w < best:
                best = w
                for i in range(n):
                    best_labels[i] = digits[i]
        steps += 1
        i = n - 1
        while i >= 0 and digits[i] == 2:
            digits[i] = 0
            i -= 1
        if i < 0:
            break
        digits[i] += 1
    st[0] = best
    st[2] += steps


# Both search names bind the one B&B kernel, which the objective in state
# slot 10 steers; callers and tracers keep telling the two searches apart by
# name.
bnb_min_weight = bnb_max_twos = _bnb
brute_force_scan = _brute_force_scan
