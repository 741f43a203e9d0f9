package main

import (
	"fmt"
	"time"

	"semcc/internal/dist"
	"semcc/internal/oodb"
	"semcc/internal/orderentry"
	"semcc/internal/val"
	"semcc/internal/wal"
)

// crashResult is what the crash epoch and the restart yield.
type crashResult struct {
	res                   phaseResult
	decode, analyze, undo time.Duration
	records               int
}

func (c *crashResult) into(v values) {
	v["wal.recover_decode_s"] = c.decode.Seconds()
	v["wal.recover_analyze_s"] = c.analyze.Seconds()
	v["wal.recover_undo_ms"] = float64(c.undo) / 1e6
	v["wal.recover_records_per_s"] = ratio(float64(c.records), (c.decode + c.analyze).Seconds())
}

// rootID is the id recovery will know a root by: the engine's root id on
// the direct engine, the coordinator's global id on a cluster.
func rootID(s orderentry.Session) uint64 {
	switch tx := s.(type) {
	case *oodb.Tx:
		return tx.Root().ID()
	case *dist.Tx:
		return tx.GID()
	}
	return 0
}

// crashAndRestart runs one more journal epoch in which the clients note
// the id of every root they see commit, leaves one uncommitted root per
// client in flight, and then crashes: all that survives is the store and
// each journal's DurableBytes. Restart decodes those bytes, reopens the
// databases over the surviving stores and recovers. Afterwards every
// commit a client saw must be a winner, every in-flight root a loser
// whose effects are compensated, and stock conserved.
func crashAndRestart(s *sut, clients []*client) (*crashResult, error) {
	fronts := make([]*orderentry.App, len(clients))
	for i, cl := range clients {
		cl := cl
		fronts[i] = orderentry.NewClusterApp(s.peers, func() (orderentry.Session, error) {
			tx, err := s.app.Begin()
			if err == nil {
				cl.lastRoot = rootID(tx)
			}
			return tx, err
		})
	}
	res, err := runPhase(clients, phase{roots: int64(s.sp.crash), apps: fronts, keepIDs: true})
	if err != nil {
		return nil, err
	}
	out := &crashResult{res: res}

	// One uncommitted root per client: debits of two adjacent items
	// (two nodes on the cluster), distinct per client so none waits for
	// another. A debit that is not compensated breaks conservation,
	// because the driver's tally never sees it.
	inflight := make(map[uint64]bool)
	for i := range clients {
		tx, err := s.app.Begin()
		if err != nil {
			return nil, err
		}
		inflight[rootID(tx)] = true
		for _, itemNo := range []int64{int64(2*i + 1), int64(2*i + 2)} {
			item, err := s.app.Item(itemNo)
			if err != nil {
				return nil, err
			}
			if _, err := tx.Call(item, orderentry.MDebitStock, val.OfInt(int64(i+1))); err != nil {
				return nil, fmt.Errorf("in-flight debit of item %d: %w", itemNo, err)
			}
		}
	}

	// The crash. Sync first so that the in-flight roots' records are in
	// the durable image and recovery has something to undo.
	images := make([][]byte, len(s.journals))
	for i, j := range s.journals {
		j.Sync()
		images[i] = j.DurableBytes()
	}
	if s.cluster != nil {
		for i := range images {
			s.cluster.Node(i).Kill()
		}
	}

	// Restart, from the images alone.
	undone := make(map[uint64]bool)
	peers := make([]*orderentry.App, len(images))
	for i, img := range images {
		t0 := time.Now()
		log, _, err := wal.UnmarshalDurable(img)
		if err != nil {
			return nil, fmt.Errorf("node %d: durable image: %w", i, err)
		}
		t1 := time.Now()
		pre, err := wal.Analyze(log)
		if err != nil {
			return nil, fmt.Errorf("node %d: analysis: %w", i, err)
		}
		t2 := time.Now()
		out.decode += t1.Sub(t0)
		out.analyze += t2.Sub(t1)
		out.records += log.Len()

		// Name the losers before the restart forgets the node's branch
		// directory: journals carry local root ids, clients know global
		// ones.
		global := func(local uint64) uint64 { return local }
		if s.cluster != nil {
			node := s.cluster.Node(i)
			global = func(local uint64) uint64 { gid, _ := node.GIDOf(local); return gid }
		}
		for _, l := range pre.Losers {
			id := global(l.Root)
			if !inflight[id] {
				return nil, fmt.Errorf("node %d: recovery would undo root %d, which was not in flight", i, id)
			}
			if len(l.Pending) > 0 {
				undone[id] = true
			}
		}
		// Nothing was inside Commit when the crash came, so no root is
		// in doubt.
		if len(pre.Losers) != len(inflight) || len(pre.InDoubt) != 0 {
			return nil, fmt.Errorf("node %d: %d losers and %d in doubt, want the %d in-flight roots as losers",
				i, len(pre.Losers), len(pre.InDoubt), len(inflight))
		}

		var a *wal.Analysis
		var db *oodb.DB
		if s.cluster != nil {
			// A branch commits on every node, so each node's winners
			// are exactly the global commits of the epoch.
			if a, err = s.cluster.RecoverNode(i, oodb.Options{}, log); err == nil {
				db = s.cluster.Node(i).DB()
				if uint64(len(a.Committed)) != res.committed {
					err = fmt.Errorf("%d winners, clients saw %d commits", len(a.Committed), res.committed)
				}
			}
		} else {
			db = oodb.Reopen(s.peers[i].DB, oodb.Options{})
			if a, err = wal.Recover(db, log); err == nil {
				won := make(map[uint64]bool, len(a.Committed))
				for _, id := range a.Committed {
					won[id] = true
				}
				for _, cl := range clients {
					for _, id := range cl.ids {
						if !won[id] {
							err = fmt.Errorf("root %d was acknowledged as committed and is not a winner", id)
						}
					}
				}
			}
		}
		if err != nil {
			return nil, fmt.Errorf("node %d: recovery: %w", i, err)
		}
		out.undo += time.Since(t2)
		if peers[i], err = orderentry.Attach(db); err != nil {
			return nil, fmt.Errorf("node %d: %w", i, err)
		}
	}
	for id := range inflight {
		if !undone[id] {
			return nil, fmt.Errorf("in-flight root %d had nothing to compensate on any node", id)
		}
	}
	if err := checkConservation(orderentry.NewClusterApp(peers, nil), clients); err != nil {
		return nil, fmt.Errorf("after restart: %w", err)
	}
	return out, nil
}
