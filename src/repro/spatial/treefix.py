"""Treefix sums by spatial tree contraction (paper §V).

Bottom-up treefix (every vertex gets the reduction of its subtree) and the
top-down variant of §V-D (every vertex gets the reduction of its
root-to-vertex path), both as Las Vegas algorithms on the machine:
**O(n log n) energy** and **O(log n) / O(log² n) depth** for bounded /
unbounded degree, with high probability (Lemmas 11–12).

Structure of the implementation, mirroring the paper:

* **Supervertices.** Each live supervertex is identified with its
  representative ``R(u)`` (topmost member). Its per-vertex O(1)-word state:
  partial value ``P``, accumulator ``A``, parent representative, child
  count, the single-child witness (only maintained while the count is 1 —
  which is an invariant: counts only change at rakes, where the witness is
  learned), and ``last`` — the deepest absorbed member, whose original
  children are exactly the supervertex's children in the supervertex tree.
  That invariant is what lets every parent↔children exchange run as a §III
  *local messaging* operation over ``last``'s original family (via the
  virtual tree when the degree is unbounded), plus one representative→
  ``last`` hop whose total length is bounded by the tree's edge energy.

* **COMPACT** (§V-A3): (1) every supervertex tells its children whether it
  is branching, together with its random-mate coin; (2) viable vertices
  (non-branching parent, exactly one child) that drew heads under a tails
  parent form an independent set and COMPRESS into their parents;
  (3) supervertices whose children are all leaves except at most one RAKE
  them.

* **Contraction tree** (Fig. 6): each contraction event is recorded at the
  absorbed vertex (for a rake: at the smallest raked child) with the
  absorber's previous log head chained through ``saved_state`` — O(1)
  words everywhere. Undo rounds pop one event per live supervertex.

* **No inverses needed.** The paper's undo formulas subtract partial sums;
  to support any *commutative monoid* (max, min, gcd, …) each event also
  records the absorber's pre-event partial, so undo restores rather than
  subtracts. (True non-commutative treefix is ill-posed under contraction
  order; the paper's "any associative operator" is read as commutative
  monoids here — see DESIGN.md.)

There is no global synchronization: rounds only exchange messages between
neighbouring supervertices, so the machine's dependency clocks realize the
paper's "execute the steps as soon as possible" depth argument.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.contracts import cost_contract
from repro.errors import ConvergenceError, ValidationError
from repro.spatial.local_messaging import family_broadcast, family_reduce
from repro.utils import ceil_log2, resolve_rng

Op = Callable[[np.ndarray, np.ndarray], np.ndarray]

_NONE = -1
_MULTI = -2  # witness value: more than one non-leaf child
_EV_COMPRESS = 1
_EV_RAKE = 2


def _witness_combine(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Associative 'at most one id' combiner: -1 none, id, or -2 several."""
    out = np.where(a == _NONE, b, a)
    both = (a != _NONE) & (b != _NONE)
    return np.where(both, _MULTI, out)


class _TreefixState:
    """All per-vertex O(1)-word registers of the contraction algorithm.

    The three value-carrying registers (``P``, ``A``, pre-event partials)
    take the payload dtype (int64 or float64); the structural registers
    are always int64 ids.
    """

    def __init__(self, st, values: np.ndarray, identity):
        regs = st.machine.registers
        n = st.n
        self.regs = regs
        value_dtype = (
            np.float64 if np.issubdtype(values.dtype, np.floating) else np.int64
        )
        names = [
            "tfx_P", "tfx_A", "tfx_active", "tfx_par", "tfx_last",
            "tfx_nchild", "tfx_only_child", "tfx_log_head", "tfx_wake_ev",
            "tfx_ev_type", "tfx_ev_saved", "tfx_ev_last", "tfx_ev_P_before",
            "tfx_ev_nchild", "tfx_ev_w",
        ]
        self._names = names
        for name in names:
            dtype = value_dtype if name in ("tfx_P", "tfx_A", "tfx_ev_P_before") else np.int64
            regs.alloc(name, dtype=dtype)
        self.P = regs["tfx_P"]
        self.A = regs["tfx_A"]
        self.active = regs["tfx_active"]
        self.par = regs["tfx_par"]
        self.last = regs["tfx_last"]
        self.nchild = regs["tfx_nchild"]
        self.only_child = regs["tfx_only_child"]
        self.log_head = regs["tfx_log_head"]
        self.wake_ev = regs["tfx_wake_ev"]
        self.ev_type = regs["tfx_ev_type"]
        self.ev_saved = regs["tfx_ev_saved"]
        self.ev_last = regs["tfx_ev_last"]
        self.ev_P_before = regs["tfx_ev_P_before"]
        self.ev_nchild = regs["tfx_ev_nchild"]
        self.ev_w = regs["tfx_ev_w"]

        tree = st.tree
        self.P[:] = values
        self.A[:] = identity
        self.active[:] = 1
        self.par[:] = tree.parents
        self.last[:] = np.arange(n)
        counts = tree.num_children()
        self.nchild[:] = counts
        self.only_child[:] = _NONE
        single = counts == 1
        if single.any():
            offsets, targets = tree.children_csr()
            self.only_child[single] = targets[offsets[:-1][single]]
        self.log_head[:] = _NONE
        self.wake_ev[:] = _NONE
        self.ev_type[:] = 0
        self.ev_saved[:] = _NONE
        self.ev_last[:] = _NONE
        self.ev_P_before[:] = 0
        self.ev_nchild[:] = 0
        self.ev_w[:] = _NONE

    def release(self) -> None:
        for name in self._names:
            self.regs.free(name)


def _rep_to_last_hop(st, reps: np.ndarray, last: np.ndarray) -> None:
    """Charge the representative → family-head hop where they differ."""
    far = reps[last[reps] != reps]
    if len(far):
        st.send_plan(far, last[far])


def _last_to_rep_hop(st, reps: np.ndarray, last: np.ndarray) -> None:
    far = reps[last[reps] != reps]
    if len(far):
        st.send_plan(last[far], far)


def _family_mask(n: int, heads: np.ndarray) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    mask[heads] = True
    return mask


def _contract(
    st,
    s: _TreefixState,
    op: Op,
    identity,
    direction: str,
    rng,
    max_rounds: int,
    *,
    coin_bias: float = 0.5,
    sync_barriers: bool = False,
) -> int:
    """Run COMPACT until one supervertex remains; returns the round count.

    ``coin_bias`` is the random-mate heads probability (paper: 1/2; exposed
    for the DESIGN.md ablation). ``sync_barriers`` inserts the global
    all-reduce barrier between COMPACT rounds that §V-C explicitly *avoids*
    — enabling it measures the log-factor depth penalty the paper warns
    about.
    """
    from repro.machine.collectives import barrier

    n = st.n
    big = np.int64(np.iinfo(np.int64).max)
    rounds = 0
    while int(s.active.sum()) > 1:
        if rounds >= max_rounds:
            raise ConvergenceError(
                f"tree contraction exceeded {max_rounds} rounds "
                f"({int(s.active.sum())} supervertices remain)"
            )
        rounds += 1
        if sync_barriers and rounds > 1:
            barrier(st.machine)
        act = np.flatnonzero(s.active == 1)
        # bool coins; arithmetic below treats heads as 1 exactly as the
        # previous int64 cast did, and the rng stream is unchanged
        coins = rng.random(size=n) < coin_bias

        # ---- (1) parents announce (branching?, coin) to their children ----
        parents_u = act[s.nchild[act] > 0]
        info = np.full(n, _NONE, dtype=np.int64)
        if len(parents_u):
            heads = s.last[parents_u]
            payload = (s.nchild[parents_u] >= 2) * 2 + coins[parents_u]
            info[heads] = payload
            _rep_to_last_hop(st, parents_u, s.last)
            received = family_broadcast(st, info, _family_mask(n, heads))
        else:
            received = info

        # ---- (2)+(3) COMPRESS an independent set of viable vertices ----
        kids = act[s.par[act] >= 0]
        got = received[kids] != _NONE
        kids = kids[got]
        if len(kids):
            parent_branching = received[kids] // 2 == 1
            parent_coin = received[kids] % 2
            viable = (~parent_branching) & (s.nchild[kids] == 1)
            sel = kids[viable & (coins[kids] == 1) & (parent_coin == 0)]
        else:
            sel = kids
        if len(sel):
            u = s.par[sel]
            # v hands its state to its parent (one O(1)-word exchange) and
            # tells its single child about its new parent — two dependency
            # rounds, batched into one charged call
            child = s.only_child[sel]
            k = len(sel)
            st.send_plan(
                np.concatenate([sel, sel]),
                np.concatenate([u, child]),
                rounds=np.array([0, k, 2 * k]),
            )
            # event record at v
            s.ev_type[sel] = _EV_COMPRESS
            s.ev_saved[sel] = s.log_head[u]
            s.ev_last[sel] = s.last[u]
            s.ev_P_before[sel] = s.P[u]
            s.ev_nchild[sel] = 1
            # absorb
            s.P[u] = op(s.P[u], s.P[sel])
            s.last[u] = s.last[sel]
            s.only_child[u] = s.only_child[sel]
            s.log_head[u] = sel
            s.par[child] = u
            s.active[sel] = 0

        # ---- (5) RAKE where all children but at most one are leaves ----
        act = np.flatnonzero(s.active == 1)
        parents_u = act[s.nchild[act] > 0]
        if len(parents_u) == 0:
            continue
        heads = s.last[parents_u]
        fam = _family_mask(n, heads)
        # contributor/leaf sets on the active frontier: an active child of
        # an active parent contributes; leaves among them are rake fodder.
        # (Equivalent to the full-n boolean algebra, but O(frontier).)
        ch = act[s.par[act] >= 0]
        cap = ch[s.active[s.par[ch]] == 1]
        cap_leaf = s.nchild[cap] == 0
        leaf_ids = cap[cap_leaf]
        nonleaf_ids = cap[~cap_leaf]
        is_leaf = np.zeros(n, dtype=bool)
        is_leaf[leaf_ids] = True

        _rep_to_last_hop(st, parents_u, s.last)
        vdtype = np.result_type(s.P.dtype, np.asarray(identity).dtype)
        leaf_msg = np.full(n, identity, dtype=vdtype)
        leaf_msg[leaf_ids] = s.P[leaf_ids]
        leaf_P = family_reduce(st, leaf_msg, fam, op=op, identity=identity)
        cnt_msg = np.zeros(n, dtype=np.int64)
        cnt_msg[leaf_ids] = 1
        leaf_cnt = family_reduce(st, cnt_msg, fam)
        wit_msg = np.full(n, _NONE, dtype=np.int64)
        wit_msg[nonleaf_ids] = nonleaf_ids
        witness = family_reduce(
            st, wit_msg, fam, op=_witness_combine, identity=_NONE
        )
        v1_msg = np.full(n, big, dtype=np.int64)
        v1_msg[leaf_ids] = leaf_ids
        v1 = family_reduce(st, v1_msg, fam, op=np.minimum, identity=big)
        _last_to_rep_hop(st, parents_u, s.last)

        h = s.last[parents_u]
        cnt = leaf_cnt[h]
        rake_ok = (cnt >= 1) & (s.nchild[parents_u] - cnt <= 1)
        rakers = parents_u[rake_ok]
        if len(rakers) == 0:
            continue
        rh = s.last[rakers]
        designated = v1[rh]
        w = witness[rh]

        # tell the family which event fired (payload: designated child id)
        wake_note = np.full(n, _NONE, dtype=np.int64)
        wake_note[rh] = designated
        _rep_to_last_hop(st, rakers, s.last)
        note = family_broadcast(st, wake_note, _family_mask(n, rh))
        # mask-scatter membership test (np.isin is O(n log n) here); is_leaf
        # implies par >= 0, so the fancy index never reads a wrapped entry
        raker_mask = np.zeros(n, dtype=bool)
        raker_mask[rakers] = True
        raked = is_leaf & raker_mask[s.par]
        # event record at the designated child
        st.send_plan(rakers, designated)
        s.ev_type[designated] = _EV_RAKE
        s.ev_saved[designated] = s.log_head[rakers]
        s.ev_last[designated] = s.last[rakers]
        s.ev_P_before[designated] = s.P[rakers]
        s.ev_nchild[designated] = s.nchild[rakers]
        s.ev_w[designated] = np.where(w == _MULTI, _NONE, w)
        # absorb (bottom-up folds raked totals into P; top-down's P is a
        # pure member-path value and is left alone)
        if direction == "bottom_up":
            s.P[rakers] = op(s.P[rakers], leaf_P[rh])
        s.nchild[rakers] = s.nchild[rakers] - cnt[rake_ok]
        new_single = s.nchild[rakers] == 1
        s.only_child[rakers] = np.where(
            new_single, np.where(w == _MULTI, _NONE, w), _NONE
        )
        s.log_head[rakers] = designated
        s.wake_ev[raked] = note[raked]
        s.active[raked] = 0
    return rounds


def _uncontract(st, s: _TreefixState, op: Op, identity, direction: str, max_rounds: int) -> int:
    """Undo the contraction tree, maintaining the §V-B invariants."""
    n = st.n
    rounds = 0
    while True:
        undoers = np.flatnonzero((s.active == 1) & (s.log_head != _NONE))
        if len(undoers) == 0:
            break
        if rounds >= max_rounds:
            raise ConvergenceError(f"uncontraction exceeded {max_rounds} rounds")
        rounds += 1
        ev = s.log_head[undoers]
        kinds = s.ev_type[ev]

        # ---- undo COMPRESS events ----
        cu = undoers[kinds == _EV_COMPRESS]
        if len(cu):
            v = s.log_head[cu]
            k = len(cu)
            # A / restore exchange: two dependency rounds in one batch
            st.send_plan(
                np.concatenate([cu, v]),
                np.concatenate([v, cu]),
                rounds=np.array([0, k, 2 * k]),
            )
            if direction == "bottom_up":
                s.A[v] = s.A[cu]
                s.A[cu] = op(s.A[cu], s.P[v])
            else:
                s.A[v] = op(s.A[cu], s.ev_P_before[v])
            s.P[cu] = s.ev_P_before[v]
            s.last[cu] = s.ev_last[v]
            s.nchild[cu] = 1
            s.only_child[cu] = v
            s.log_head[cu] = s.ev_saved[v]
            s.active[v] = 1
            child = s.only_child[v]
            has_child = child != _NONE
            if has_child.any():
                st.send_plan(v[has_child], child[has_child])
                s.par[child[has_child]] = v[has_child]
            s.ev_type[v] = 0

        # ---- undo RAKE events ----
        ru = undoers[kinds == _EV_RAKE]
        if len(ru):
            v1 = s.log_head[ru]
            fam_heads = s.ev_last[v1]
            fam = _family_mask(n, fam_heads)
            # broadcast the wake note (and, top-down, the path value)
            note = np.full(n, _NONE, dtype=np.int64)
            note[fam_heads] = v1
            path_val = np.full(n, identity, dtype=s.A.dtype)
            path_val[fam_heads] = op(s.A[ru], s.P[ru])
            _rep_to_last_hop(st, ru, s.last)
            got = family_broadcast(st, note, fam)
            if direction == "top_down":
                pv = family_broadcast(st, path_val, fam)
            waking = (s.wake_ev != _NONE) & (got == s.wake_ev)
            if direction == "top_down" and waking.any():
                s.A[waking] = pv[waking]
            # gather the raked total back (bottom-up needs it for A)
            raked_P = family_reduce(
                st, np.where(waking, s.P, identity), fam, op=op, identity=identity
            )
            _last_to_rep_hop(st, ru, s.last)
            if direction == "bottom_up":
                s.A[ru] = op(s.A[ru], raked_P[fam_heads])
            s.P[ru] = s.ev_P_before[v1]
            s.nchild[ru] = s.ev_nchild[v1]
            s.only_child[ru] = np.where(s.ev_nchild[v1] == 1, v1, _NONE)
            s.log_head[ru] = s.ev_saved[v1]
            s.active[waking] = 1
            s.wake_ev[waking] = _NONE
            s.ev_type[v1] = 0
    return rounds


def _check_int64_sums(n: int, values: np.ndarray) -> None:
    """Integer sums run in int64: reject inputs whose sums could wrap.

    Every treefix sum (subtree or root path) adds at most ``n`` values, so
    ``n * max|v| < 2**63`` rules out overflow. Computed in Python ints, so
    neither ``abs(int64 min)`` nor a large unsigned input can wrap first.
    """
    peak = max(int(values.max()), -int(values.min()))
    if n * peak >= 2**63:
        raise ValidationError(
            f"integer treefix sums may overflow int64: n={n} values with "
            f"max |v| = {peak} (n * max|v| must stay below 2**63)"
        )


def _run(st, values, op, identity, direction, seed, max_rounds, coin_bias, sync_barriers):
    values = np.asarray(values)
    if values.shape != (st.n,):
        raise ValidationError(
            f"values must have one entry per vertex ({st.n}), got {values.shape}"
        )
    if not 0.0 < coin_bias < 1.0:
        raise ValidationError(f"coin_bias must be in (0, 1), got {coin_bias}")
    if max_rounds is None:
        # generous w.h.p. guard; biased coins contract slower by a factor
        # 1/(4 p (1-p)) relative to the paper's p = 1/2
        slowdown = 1.0 / max(1e-6, 4 * coin_bias * (1 - coin_bias))
        max_rounds = int(slowdown * (80 * max(1, ceil_log2(max(2, st.n))) + 80))
    rng = resolve_rng(seed)
    if np.issubdtype(values.dtype, np.floating):
        payload = values.astype(np.float64)
    elif np.issubdtype(values.dtype, np.integer) or values.dtype == bool:
        if op is np.add:
            _check_int64_sums(st.n, values)
        payload = values.astype(np.int64)
    else:
        raise ValidationError(f"treefix supports integer/float values, got {values.dtype}")
    s = _TreefixState(st, payload, identity)
    try:
        # the scopes' *self* time is the contraction's orchestration glue:
        # the messaging kernels and machine sections inside report their own
        with st.machine.phase(f"treefix_{direction}_contract"), \
                st.machine.profile_kernel("treefix.contract"):
            rounds = _contract(
                st, s, op, identity, direction, rng, max_rounds,
                coin_bias=coin_bias, sync_barriers=sync_barriers,
            )
        with st.machine.phase(f"treefix_{direction}_expand"), \
                st.machine.profile_kernel("treefix.expand"):
            _uncontract(st, s, op, identity, direction, max_rounds)
        if not (s.active == 1).all():  # pragma: no cover - invariant guard
            raise ConvergenceError("uncontraction left inactive vertices")
        st.last_contraction_rounds = rounds
        return op(s.P.copy(), s.A.copy())
    finally:
        s.release()


@cost_contract(energy="treefix_energy", depth="treefix_depth_general", plan_safe=True)
def treefix_sum(
    st,
    values,
    *,
    op: Op = np.add,
    identity=0,
    seed=None,
    max_rounds=None,
    coin_bias: float = 0.5,
    sync_barriers: bool = False,
) -> np.ndarray:
    """Bottom-up treefix: ``out[v]`` = reduction of ``values`` over ``v``'s subtree.

    Las Vegas: O(n log n) energy; depth O(log n) for bounded degree,
    O(log² n) in general, w.h.p. (§V, Lemmas 11–12). ``op`` must be a
    commutative, associative ufunc-like with the given ``identity``.

    ``coin_bias`` and ``sync_barriers`` are ablation knobs (DESIGN.md §5):
    the paper uses fair coins and explicitly avoids per-round global
    synchronization. After the call, ``st.last_contraction_rounds`` holds
    the number of COMPACT rounds used.
    """
    return _run(st, values, op, identity, "bottom_up", seed, max_rounds, coin_bias, sync_barriers)


@cost_contract(energy="treefix_energy", depth="treefix_depth_general", plan_safe=True)
def top_down_treefix(
    st,
    values,
    *,
    op: Op = np.add,
    identity=0,
    seed=None,
    max_rounds=None,
    coin_bias: float = 0.5,
    sync_barriers: bool = False,
) -> np.ndarray:
    """Top-down treefix (§V-D): ``out[v]`` = reduction along the root→``v`` path.

    Same cost profile and ablation knobs as :func:`treefix_sum`; only the
    uncontraction formulas differ, exactly as in the paper.
    """
    return _run(st, values, op, identity, "top_down", seed, max_rounds, coin_bias, sync_barriers)
