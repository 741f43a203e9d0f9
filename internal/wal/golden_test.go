package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"semcc/internal/orderentry"
)

// golden reads one of the frozen images of testdata/golden. They were
// written at commit 220ec06 — the last with a separate synchronous
// writer — from the dryRun order-entry scenario, and are the reference
// the one journal type is held to in its place: sync.image is
// DurableBytes of a sync journal fed the scenario, flat.bin its
// Marshal, group-b3.image DurableBytes of the scenario run on a
// ModeGroup journal with MaxBatch 3 and MaxDelay 1h. A change that
// moves these bytes changes the on-disk format; regenerate them only
// with that intent.
func golden(t testing.TB, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "golden", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestGoldenImages(t *testing.T) {
	cfg := orderentry.DefaultConfig()
	recs, _ := dryRun(t, cfg)

	s := New(Config{Mode: ModeSync})
	for i, r := range recs {
		s.Append(r)
		if st := s.Stats(); st.Records != i+1 || st.Durable != st.Records || st.Flushes != uint64(st.Records) {
			t.Fatalf("sync journal after append %d: %+v, want durable == records == flushes", i+1, st)
		}
	}
	if !bytes.Equal(s.DurableBytes(), golden(t, "sync.image")) {
		t.Error("sync-mode durable image differs from golden/sync.image")
	}
	if !bytes.Equal(s.(*Log).Marshal(), golden(t, "flat.bin")) {
		t.Error("flat serialisation differs from golden/flat.bin")
	}
	if g := runGroupScenario(t, cfg, 3, ModeGroup); !bytes.Equal(g.DurableBytes(), golden(t, "group-b3.image")) {
		t.Error("group-mode (MaxBatch 3) durable image differs from golden/group-b3.image")
	}
	flat, err := Unmarshal(golden(t, "flat.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(flat.DurableBytes(), golden(t, "sync.image")) {
		t.Error("Unmarshal(flat.bin) does not rebuild golden/sync.image")
	}
}

// TestWriterlessJournalIsJustMemory holds a journal without a writer —
// NewLog, a decoded image — to what recovery and the benchmark's
// per-segment decode rely on: no goroutine, no channel, no timer, one
// allocation.
func TestWriterlessJournalIsJustMemory(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { NewLog() }); n > 1 {
		t.Errorf("NewLog allocates %v times, want the Log alone", n)
	}
	img := golden(t, "group-b3.image")
	before := runtime.NumGoroutine()
	for i := 0; i < 1000; i++ {
		l, _, err := UnmarshalDurable(img)
		if err != nil {
			t.Fatal(err)
		}
		if l.submitCh != nil || l.done != nil || !l.noWriter || l.Mode() != ModeSync {
			t.Fatalf("decoded log has a writer: mode %s", l.Mode())
		}
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("1000 UnmarshalDurable calls left %d goroutines behind", after-before)
	}
}
