package dist_test

import (
	"bytes"
	"testing"

	"semcc/internal/core"
	"semcc/internal/dist"
	"semcc/internal/oid"
	"semcc/internal/oodb"
	"semcc/internal/val"
	"semcc/internal/wal"
)

// session is the operation surface shared by *oodb.Tx and *dist.Tx —
// the identity sweep drives the same scenario through both.
type session interface {
	Get(obj oid.OID) (val.V, error)
	Put(obj oid.OID, v val.V) error
	Add(obj oid.OID, delta int64) (val.V, error)
	Select(set oid.OID, key val.V) (oid.OID, bool, error)
	Insert(set oid.OID, key val.V, member oid.OID) error
	Remove(set oid.OID, key val.V) error
	Commit() error
	Abort() error
}

// identityScenario exercises commits, an abort with compensation, and
// every generic operation, through four sequential roots.
func identityScenario(t *testing.T, begin func() session, a, b, set oid.OID) {
	t.Helper()
	s1 := begin()
	if err := s1.Put(a, val.OfInt(7)); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Add(b, 5); err != nil {
		t.Fatal(err)
	}
	if err := s1.Insert(set, val.OfInt(1), a); err != nil {
		t.Fatal(err)
	}
	if err := s1.Commit(); err != nil {
		t.Fatal(err)
	}

	s2 := begin()
	if err := s2.Put(a, val.OfInt(99)); err != nil {
		t.Fatal(err)
	}
	if err := s2.Remove(set, val.OfInt(1)); err != nil {
		t.Fatal(err)
	}
	if err := s2.Abort(); err != nil {
		t.Fatal(err)
	}

	s3 := begin()
	if _, err := s3.Get(a); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s3.Select(set, val.OfInt(1)); err != nil || !ok {
		t.Fatalf("Select after compensated Remove: ok=%v err=%v", ok, err)
	}
	if err := s3.Commit(); err != nil {
		t.Fatal(err)
	}

	// An empty root: begins and commits without touching anything.
	s4 := begin()
	if err := s4.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestOneNodeClusterJournalByteIdentical is the ablation baseline of
// the topology: routing every operation through the coordinator and
// the in-process transport at -nodes=1 must journal the byte-identical
// record sequence the direct single-engine path journals — same
// records, same order, same encoding. Single-participant commits skip
// the 2PC records entirely, and eager branch creation puts JBeginRoot
// at the same position, so the two journals cannot be told apart.
func TestOneNodeClusterJournalByteIdentical(t *testing.T) {
	t.Run("default", func(t *testing.T) {
		opts := oodb.Options{Protocol: core.Semantic}
		// Direct path.
		directLog := wal.NewLog()
		dOpts := opts
		dOpts.Journal = directLog
		db := oodb.Open(dOpts)
		da, err := db.Store().NewAtomic(val.OfInt(0))
		if err != nil {
			t.Fatal(err)
		}
		dbAtom, err := db.Store().NewAtomic(val.OfInt(0))
		if err != nil {
			t.Fatal(err)
		}
		dSet, err := db.Store().NewSet()
		if err != nil {
			t.Fatal(err)
		}
		identityScenario(t, func() session { return db.Begin() }, da, dbAtom, dSet)

		// One-node cluster path.
		clusterLog := wal.NewLog()
		c := dist.OpenCluster(1, func(int) oodb.Options {
			o := opts
			o.Journal = clusterLog
			return o
		})
		defer c.Close()
		ca, err := c.Node(0).DB().Store().NewAtomic(val.OfInt(0))
		if err != nil {
			t.Fatal(err)
		}
		cb, err := c.Node(0).DB().Store().NewAtomic(val.OfInt(0))
		if err != nil {
			t.Fatal(err)
		}
		cSet, err := c.Node(0).DB().Store().NewSet()
		if err != nil {
			t.Fatal(err)
		}
		if ca != da || cb != dbAtom || cSet != dSet {
			t.Fatalf("one-node cluster allocates different OIDs: (%v,%v,%v) vs (%v,%v,%v)",
				ca, cb, cSet, da, dbAtom, dSet)
		}
		identityScenario(t, func() session {
			tx, err := c.Begin()
			if err != nil {
				t.Fatal(err)
			}
			return tx
		}, ca, cb, cSet)

		dBytes, cBytes := directLog.Marshal(), clusterLog.Marshal()
		if !bytes.Equal(dBytes, cBytes) {
			dr, cr := directLog.Records(), clusterLog.Records()
			t.Errorf("journals differ: direct %d records / %d bytes, cluster %d records / %d bytes",
				len(dr), len(dBytes), len(cr), len(cBytes))
			for i := 0; i < len(dr) || i < len(cr); i++ {
				var d, c core.JournalRecord
				if i < len(dr) {
					d = dr[i]
				}
				if i < len(cr) {
					c = cr[i]
				}
				if d != c {
					t.Errorf("  record %d: direct %+v, cluster %+v", i, d, c)
				}
			}
		}
	})
}
