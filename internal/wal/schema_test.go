package wal

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"semcc/internal/compat"
	"semcc/internal/core"
	"semcc/internal/oodb"
	"semcc/internal/orderentry"
	"semcc/internal/val"
)

// TestJournalCarriesNoMethodNames pins the journal format: a record
// carries its method as an id, and the names live only in the schema
// records each durable image starts with. T1–T5, a NewOrder and an
// aborted root run on a sync journal (one frame per record, so every
// schema record's bytes are exactly its frame); the journal is Reset,
// as the benchmark does between segments, and one more root runs. Both
// images must start with a schema record, and no method name of four
// or more bytes — a registered type's or a generic operation's — may
// appear in either image outside its schema records.
func TestJournalCarriesNoMethodNames(t *testing.T) {
	j := New(Config{Mode: ModeSync})
	db := oodb.Open(oodb.Options{Protocol: core.Semantic, Journal: j})
	app, err := orderentry.Setup(db, orderentry.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	nos1, _ := app.OrderNosOf(1)
	nos2, _ := app.OrderNosOf(2)
	r1 := orderentry.OrderRef{ItemNo: 1, OrderNo: nos1[0]}
	r2 := orderentry.OrderRef{ItemNo: 2, OrderNo: nos2[0]}
	if err := app.T1(r1, r2); err != nil {
		t.Fatal(err)
	}
	if err := app.T2(r1, r2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := app.T3(r1, r2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := app.T4(r1, r2); err != nil {
		t.Fatal(err)
	}
	if _, err := app.T5(1); err != nil {
		t.Fatal(err)
	}
	if _, err := app.NewOrderTx(1, 7, 1); err != nil {
		t.Fatal(err)
	}
	item2, _ := app.Item(2)
	tx := db.Begin()
	if _, err := tx.Call(item2, orderentry.MPayOrder, val.OfInt(nos2[1])); err != nil {
		t.Fatal(err)
	}
	if err := tx.Abort(); err != nil {
		t.Fatal(err)
	}
	first := j.DurableBytes()
	j.Reset()
	if err := app.T2(orderentry.OrderRef{ItemNo: 1, OrderNo: nos1[1]}, r2); err != nil {
		t.Fatal(err)
	}
	second := j.DurableBytes()

	var names []string
	for _, typ := range []string{"Item", "Order"} {
		ty, _ := db.TypeByName(typ)
		names = append(names, ty.Matrix.Methods()...)
	}
	for op := compat.OpGet; op <= compat.OpRoot; op++ {
		names = append(names, op.String())
	}
	for i, img := range [][]byte{first, second} {
		l, batches, err := UnmarshalDurable(img)
		if err != nil {
			t.Fatal(err)
		}
		recs := l.Records()
		if len(recs) == 0 || recs[0].Kind != core.JSchema {
			t.Fatalf("image %d does not start with a schema record", i)
		}
		// Blank every schema record's frame; what is left must hold no
		// name.
		rest, off, schemas, invs := append([]byte(nil), img...), 0, 0, 0
		for k, b := range batches {
			if recs[k].Kind == core.JSchema {
				schemas++
				for p := off; p < b.EndOff; p++ {
					rest[p] = 0
				}
			} else if recs[k].Inv != nil {
				invs++
			}
			off = b.EndOff
		}
		if schemas != 2 || invs == 0 {
			t.Fatalf("image %d: %d schema records and %d invocations, want 2 and some", i, schemas, invs)
		}
		for _, n := range names {
			if len(n) >= 4 && bytes.Contains(rest, []byte(n)) {
				t.Errorf("image %d carries the method name %s outside its schema records", i, n)
			}
		}
	}
}

// TestRecoveryRefusesForeignSchema holds recovery to the journal's
// schema: over an image whose schema record renames one method of a
// registered type, or swaps two (every other method keeps its id), it
// fails with an error naming the type and the method, and undoes
// nothing — the loser's work is still in the store afterwards.
func TestRecoveryRefusesForeignSchema(t *testing.T) {
	for _, tc := range []struct {
		name   string
		edit   func(names []string)
		wanted []string
	}{
		{"rename", func(names []string) { names[1] = "Ship" }, []string{"Item", `method 9 is "Ship" in the journal's schema, "ShipOrder"`}},
		{"reorder", func(names []string) { names[1], names[2] = names[2], names[1] }, []string{"Item", `method 9 is "PayOrder" in the journal's schema, "ShipOrder"`}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db, app, log := crashRig(t)
			nos1, _ := app.OrderNosOf(1)
			item1, _ := app.Item(1)
			tx := db.Begin()
			if _, err := tx.Call(item1, orderentry.MShipOrder, val.OfInt(nos1[0])); err != nil {
				t.Fatal(err)
			}
			// -- crash --, with the Item schema edited in the image.
			recovered, err := Unmarshal(log.Marshal())
			if err != nil {
				t.Fatal(err)
			}
			edited := 0
			for i, r := range recovered.recs {
				if r.Kind != core.JSchema || r.Inv.Args[0].Str() != "Item" {
					continue
				}
				names := make([]string, len(r.Inv.Args)-1)
				for k, v := range r.Inv.Args[1:] {
					names[k] = v.Str()
				}
				if names[1] != orderentry.MShipOrder {
					t.Fatalf("Item's schema lists %v: ShipOrder is not id %d", names, compat.FirstMethod+1)
				}
				tc.edit(names)
				args := []val.V{val.OfStr("Item")}
				for _, n := range names {
					args = append(args, val.OfStr(n))
				}
				inv := compat.Inv(r.Inv.Object, r.Inv.Method, args...)
				recovered.recs[i].Inv = &inv
				edited++
			}
			if edited != 1 {
				t.Fatalf("%d Item schema records, want 1", edited)
			}
			before := snapshotOf(t, app)
			db2 := oodb.Reopen(db, oodb.Options{Protocol: core.Semantic})
			_, err = Recover(db2, recovered)
			if err == nil {
				t.Fatal("recovery ran over a journal whose schema the registry contradicts")
			}
			for _, w := range tc.wanted {
				if !strings.Contains(err.Error(), w) {
					t.Errorf("error %q does not name %s", err, w)
				}
			}
			app2, err := orderentry.Attach(db2)
			if err != nil {
				t.Fatal(err)
			}
			if after := snapshotOf(t, app2); !reflect.DeepEqual(after, before) {
				t.Errorf("the refused recovery changed the store:\nbefore %+v\nafter  %+v", before, after)
			}
		})
	}
}
