package core

import "semcc/internal/obs"

// testConflict implements the paper's Figure 9 for the semantic
// protocol, and the corresponding tests for the baseline protocols.
//
// It tests lock requestor r against held (or earlier-queued) lock h on
// the same object and returns nil when no conflict exists, or the
// transaction node whose *completion* r must wait for.
//
// Semantic protocol (paper Fig. 9):
//
//	if h and r commute, or belong to the same top-level transaction:
//	    no conflict
//	for h' in ancestor chain of h (bottom-up):
//	    for r' in ancestor chain of r (bottom-up):
//	        if h' and r' commute (same object, compatible):
//	            if h' is completed: no conflict      // case 1, Fig. 6
//	            else: wait for h'                    // case 2, Fig. 7
//	return root of h                                 // worst case
//
// The ancestor chains include the roots. Roots are actions on the
// database pseudo-object in mode OpRoot, which never commutes, so a
// pair of roots never qualifies as a commutative ancestor pair — this
// yields the paper's worst case (wait for top-level commit) exactly
// when no real commutative pair exists, as in Fig. 5.
//
// Caller holds the shard mutex of the object both locks live on;
// foreign nodes' states are read atomically (they transition
// monotonically Active→Committed/Aborted, and every waiter re-runs the
// test when a waited-on node completes, so a stale Active read only
// ever causes one extra recheck, never a wrong grant).
//
// stripe selects the stats stripe; probe suppresses the counters for
// non-mutating probes.
func (m *lockMgr) testConflict(h *lock, r *lock, stripe int, probe bool) *Tx {
	hOwner, rOwner := h.owner, r.owner
	if hOwner.root == rOwner.root {
		return nil
	}
	if m.compatible(h.inv, r.inv) {
		return nil
	}
	if h.escrowed && r.escrowed {
		// State-dependent admission (escrow mode): both requests hold
		// reservations on this object's counter, so both deltas fit the
		// bounds interval simultaneously — the operations commute in
		// the current state even though the static matrix conflicts
		// them. Like case-1 grants, these leave no block/grant pair
		// behind, so the event names them here (the sink's stripe
		// mutex is a leaf: emitting under the shard mutex cannot
		// deadlock).
		m.bumpStat(stripe, cEscrowAdmits, probe)
		if !probe && m.obs.On() {
			m.obs.Emit(stripe, obs.Event{Kind: obs.EvEscrow, Node: rOwner.id, Root: rOwner.root.id, Obj: r.inv.Object, Peer: hOwner.id})
		}
		return nil
	}
	switch m.kind {
	case Semantic:
		if m.noRelief {
			// Ablation: retained-lock conflicts always wait for the
			// holder's top-level commit.
			m.bumpStat(stripe, cRootWaits, probe)
			return hOwner.root
		}
		for _, hp := range hOwner.ancestors() {
			for _, rp := range rOwner.ancestors() {
				if hp.inv.Object != rp.inv.Object {
					continue
				}
				if !m.compatible(hp.inv, rp.inv) {
					continue
				}
				if hp.State() == Committed {
					// Case 1: the conflict is an implementation-level
					// pseudo-conflict; the committed commutative
					// ancestor has already made the subtransaction's
					// effects semantically visible. Case-1 grants leave
					// no block/grant pair behind, so the event names
					// them here (the sink's stripe mutex is a leaf:
					// emitting under the shard mutex cannot deadlock).
					m.bumpStat(stripe, cCase1Grants, probe)
					if !probe && m.obs.On() {
						m.obs.Emit(stripe, obs.Event{Kind: obs.EvCase1, Node: rOwner.id, Root: rOwner.root.id, Obj: r.inv.Object, Peer: hOwner.id})
					}
					return nil
				}
				// Case 2: r may resume as soon as hp commits.
				m.bumpStat(stripe, cCase2Waits, probe)
				return hp
			}
		}
		m.bumpStat(stripe, cRootWaits, probe)
		return hOwner.root

	case OpenNoRetain:
		// Paper §3 protocol: a subtransaction's locks are released at
		// its commit, so a held lock's owner chain always contains an
		// uncommitted node (the one whose completion will release the
		// lock). Wait for the lowest such node.
		for a := hOwner; a != nil; a = a.parent {
			if a.State() == Active {
				return a
			}
		}
		return hOwner.root

	default:
		// Conventional protocols (closed nested, strict 2PL on
		// objects or pages): conflicting locks are held until the
		// holder's top-level commit.
		m.bumpStat(stripe, cRootWaits, probe)
		return hOwner.root
	}
}

// bumpStat increments a stats counter unless a non-mutating probe is
// in progress.
func (m *lockMgr) bumpStat(stripe int, c statCounter, probe bool) {
	if probe {
		return
	}
	m.stats.bump(stripe, c)
}
