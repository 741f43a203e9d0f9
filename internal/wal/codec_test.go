package wal

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"semcc/internal/compat"
	"semcc/internal/core"
	"semcc/internal/oid"
	"semcc/internal/val"
)

// TestRecordBytesExact pins recordBytes to the actual encoder: the
// metrics byte counter computes sizes arithmetically on the append hot
// path (no marshalling), so any drift between it and appendRecord
// would silently misreport durable byte volume. Every record kind, the
// nil/non-nil invocation split, the splice flag, multi-byte id codes
// against near and far neighbours, and zero/one/many-argument methods
// are covered, record by record and as one sequence.
func TestRecordBytesExact(t *testing.T) {
	noArgs := compat.Inv(oid.OID{K: oid.Atomic, N: 1}, compat.FirstMethod)
	multi := compat.Inv(oid.OID{K: oid.Tuple, N: 1 << 40}, compat.FirstMethod+200,
		val.OfInt(-7), val.OfStr(strings.Repeat("x", 300)), val.OfFloat(3.25),
		val.OfBool(true), val.OfRef(oid.OID{K: oid.Set, N: 1 << 21}),
		val.OfInt(1+1<<32), val.NullV)
	splice := compat.Inv(oid.OID{K: oid.Set, N: 2}, compat.OpInsert,
		val.OfRef(oid.OID{K: oid.Tuple, N: 9}))

	cases := []core.JournalRecord{
		{Kind: core.JBeginRoot, Node: 1},
		{Kind: core.JBeginRoot, Node: 1 << 50},
		{Kind: core.JBegin, Node: 2, Parent: 1, Inv: &noArgs},
		{Kind: core.JBegin, Node: 1 << 14, Parent: 1 << 28, Inv: &multi},
		{Kind: core.JSubCommit, Node: 2, Inv: &multi},
		{Kind: core.JSubCommit, Node: 2, Parent: 1, Splice: true, Inv: &splice},
		{Kind: core.JSubCommit, Node: 3, Splice: true},
		{Kind: core.JAbortStart, Node: 1},
		{Kind: core.JCompensated, Node: 1, Inv: &noArgs},
		{Kind: core.JNodeAborted, Node: 1},
		{Kind: core.JRootCommit, Node: 1},
		{Kind: core.JRootCommit, Node: 300, Parent: 300},
		{Kind: core.JPrepare, Node: 70, Parent: math.MaxUint64},
		{Kind: core.JDecide, Node: 70, Parent: 70 + 1<<63, Splice: true},
	}
	for i, r := range cases {
		for _, prev := range []uint64{0, r.Node, r.Node - 1, r.Node + 64, 1 << 40, math.MaxUint64} {
			want := len(appendRecord(nil, prev, r))
			if got := recordBytes(prev, r); got != uint64(want) {
				t.Errorf("case %d (%v) after node %d: recordBytes = %d, marshalled size = %d", i, r.Kind, prev, got, want)
			}
		}
	}

	// As one sequence: the mirror, chained on the previous Node, adds up
	// to the flat image and to a frame body.
	var sum uint64
	prev := uint64(0)
	l := NewLog()
	for _, r := range cases {
		sum += recordBytes(prev, r)
		prev = r.Node
		l.recs = append(l.recs, r)
	}
	count := uint64(uvarintLen(uint64(len(cases))))
	if got := uint64(len(l.Marshal())); got != count+sum {
		t.Errorf("flat image is %d bytes, count + recordBytes chain = %d", got, count+sum)
	}
	if body, _ := binary.Uvarint(frameOf(nil, cases)); body != count+sum {
		t.Errorf("frame body is %d bytes, count + recordBytes chain = %d", body, count+sum)
	}
}

// genRecords returns n records with ids drawn to hit every branch of
// the id codes: Parent absent, below, equal to and above Node; ids and
// gids at both ends of uint64 and exactly half the ring apart; and
// Node moving down as well as up from one record to the next, as when
// two clients' trees interleave in one frame.
func genRecords(rng *rand.Rand, n int) []core.JournalRecord {
	inv := compat.Inv(oid.OID{K: oid.Tuple, N: 5}, mUnship, val.OfInt(3), val.OfStr("x"))
	edges := []uint64{0, 1, 2, 127, 128, 1 << 21, 1<<21 - 1, 1 << 40, 1<<63 - 1, 1 << 63, 1<<63 + 1,
		math.MaxUint64 - 1, math.MaxUint64}
	pick := func(near uint64) uint64 {
		switch rng.Intn(4) {
		case 0:
			return edges[rng.Intn(len(edges))]
		case 1:
			return rng.Uint64()
		case 2:
			return near + uint64(rng.Intn(200))
		default:
			return near - uint64(rng.Intn(200))
		}
	}
	recs := make([]core.JournalRecord, n)
	node := uint64(1)
	for i := range recs {
		node = pick(node)
		r := core.JournalRecord{Kind: core.JournalKind(rng.Intn(int(core.JDecide) + 1)), Node: node, Splice: rng.Intn(2) == 0}
		switch rng.Intn(5) {
		case 0: // no parent
		case 1:
			r.Parent = node
		case 2:
			r.Parent = node + 1<<63
		default:
			r.Parent = pick(node)
		}
		if rng.Intn(2) == 0 {
			r.Inv = &inv
		}
		recs[i] = r
	}
	return recs
}

// TestCodecRoundTripProperty: any record sequence survives both
// serialisations exactly, whatever its ids, and no record is shorter
// than the 5 bytes both decoders' count checks assume.
func TestCodecRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for round := 0; round < 200; round++ {
		recs := genRecords(rng, 1+rng.Intn(40))

		l := NewLog()
		l.recs = recs
		flat, err := Unmarshal(l.Marshal())
		if err != nil {
			t.Fatalf("round %d: Unmarshal: %v", round, err)
		}
		if !reflect.DeepEqual(flat.Records(), recs) {
			t.Fatalf("round %d: flat round trip changed the records\n got %v\nwant %v", round, flat.Records(), recs)
		}

		// Framed, cut at random places: every frame restarts the chain.
		var img []byte
		for at := 0; at < len(recs); {
			end := at + 1 + rng.Intn(len(recs)-at)
			img = frameOf(img, recs[at:end])
			at = end
		}
		framed, _, err := UnmarshalDurable(img)
		if err != nil {
			t.Fatalf("round %d: UnmarshalDurable: %v", round, err)
		}
		if !reflect.DeepEqual(framed.Records(), recs) {
			t.Fatalf("round %d: framed round trip changed the records\n got %v\nwant %v", round, framed.Records(), recs)
		}

		prev := uint64(0)
		for _, r := range recs {
			if n := len(appendRecord(nil, prev, r)); n < 5 {
				t.Fatalf("round %d: %+v after node %d encodes in %d bytes, decoders assume >= 5", round, r, prev, n)
			}
			prev = r.Node
		}
	}
	// The bound is tight: a record with no parent, no invocation and
	// its neighbour's Node is exactly 5 bytes.
	if n := len(appendRecord(nil, 9, core.JournalRecord{Kind: core.JRootCommit, Node: 9})); n != 5 {
		t.Errorf("smallest record is %d bytes, want 5", n)
	}
}

// engineHistory returns the journal two clients' roots leave behind,
// n records long, with node ids counted up from base as the engine
// does: each root a begin, a few subtransactions (begin with
// invocation, subcommit) and a commit, the two clients' records
// interleaved by the seeded schedule. The structure depends on the
// seed only, never on base.
func engineHistory(seed int64, base uint64, n int) []core.JournalRecord {
	rng := rand.New(rand.NewSource(seed))
	inv := compat.Inv(oid.OID{K: oid.Tuple, N: 5}, mShip, val.OfInt(3))
	next := base
	type client struct {
		root uint64
		open []uint64 // begun, not yet subcommitted
		left int      // subtransactions still to begin
	}
	var cs [2]client
	recs := make([]core.JournalRecord, 0, n)
	for len(recs) < n {
		c := &cs[rng.Intn(len(cs))]
		switch {
		case c.root == 0:
			next++
			c.root, c.left = next, 1+rng.Intn(6)
			recs = append(recs, core.JournalRecord{Kind: core.JBeginRoot, Node: c.root})
		case len(c.open) > 0 && (c.left == 0 || rng.Intn(2) == 0):
			node := c.open[len(c.open)-1]
			c.open = c.open[:len(c.open)-1]
			recs = append(recs, core.JournalRecord{Kind: core.JSubCommit, Node: node, Inv: &inv})
		case c.left > 0:
			next++
			parent := c.root
			if len(c.open) > 0 {
				parent = c.open[len(c.open)-1]
			}
			c.open = append(c.open, next)
			c.left--
			recs = append(recs, core.JournalRecord{Kind: core.JBegin, Node: next, Parent: parent, Inv: &inv})
		default:
			recs = append(recs, core.JournalRecord{Kind: core.JRootCommit, Node: c.root})
			c.root = 0
		}
	}
	return recs
}

// TestCodecSizeIndependentOfIDMagnitude: bytes per record must not
// depend on how many nodes the engine has started. The same history
// with ids from 1 and from 1<<40 encodes to the same size except for
// the one record per frame (or per flat image) that has no neighbour
// and is written from 0.
func TestCodecSizeIndependentOfIDMagnitude(t *testing.T) {
	const n = 10_000
	young, old := engineHistory(7, 0, n), engineHistory(7, 1<<40, n)

	size := func(recs []core.JournalRecord) (total, first uint64) {
		prev := uint64(0)
		for _, r := range recs {
			total += recordBytes(prev, r)
			prev = r.Node
		}
		return total, recordBytes(0, recs[0])
	}
	check := func(what string, y, o []core.JournalRecord) {
		t.Helper()
		ySize, yFirst := size(y)
		oSize, oFirst := size(o)
		if ySize-yFirst != oSize-oFirst {
			t.Errorf("%s: %d bytes after the first record with young ids, %d with old ids", what, ySize-yFirst, oSize-oFirst)
		}
	}
	check("flat image", young, old)

	// Framed, at the same seeded cuts on both sides.
	var yImg, oImg []byte
	frames := 0
	rng := rand.New(rand.NewSource(8))
	for at := 0; at < n; frames++ {
		end := at + 1 + rng.Intn(64)
		if end > n {
			end = n
		}
		check(fmt.Sprintf("frame %d", frames), young[at:end], old[at:end])
		yImg, oImg = frameOf(yImg, young[at:end]), frameOf(oImg, old[at:end])
		at = end
	}
	// On the images themselves the old engine pays for the first record
	// of each frame — a node code of uvarintLen(zigzag(1<<40 + n)) bytes
	// where a young id takes one at best — plus at most one byte where
	// the longer body lengthens the frame's length prefix.
	perFrame := uvarintLen(zigzag(1<<40+n)) - 1 + 1
	if y, o := len(yImg), len(oImg); o < y || o-y > frames*perFrame {
		t.Errorf("framed image: %d bytes young, %d old; want a difference within %d frames x %d bytes", y, o, frames, perFrame)
	}
}

// buildBigLog appends n synthetic records.
func buildBigLog(n int) *Log {
	inv := compat.Inv(oid.OID{K: oid.Tuple, N: 5}, mUnship, val.OfInt(3))
	l := NewLog()
	for i := 0; i < n; i++ {
		l.Append(core.JournalRecord{Kind: core.JBegin, Node: uint64(i + 2), Parent: 1, Inv: &inv})
	}
	return l
}

// BenchmarkLogSnapshot compares the two ways a repeated reader (a
// polling test, an incremental analysis pass) can snapshot a journal:
// Records copies all n records every time, RecordsFrom copies only the
// unseen tail — the difference is what motivated RecordsFrom.
func BenchmarkLogSnapshot(b *testing.B) {
	const n = 10_000
	b.Run("Records", func(b *testing.B) {
		l := buildBigLog(n)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if len(l.Records()) != n {
				b.Fatal("bad snapshot")
			}
		}
	})
	b.Run("RecordsFrom", func(b *testing.B) {
		l := buildBigLog(n)
		seen := 0
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			seen += len(l.RecordsFrom(seen))
			if seen != n {
				b.Fatal("bad snapshot")
			}
		}
	})
}

// Method ids of a type the codec tests journal (any id round-trips).
const (
	mShip   = compat.FirstMethod + 1
	mUnship = compat.FirstMethod + 5
	mUndoA  = compat.FirstMethod
	mUndoB  = compat.FirstMethod + 1
	mUndoC  = compat.FirstMethod + 2
)
