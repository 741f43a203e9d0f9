package main

import (
	"math"
	"testing"

	"semcc/internal/orderentry"
)

func ref(item, order int64) orderentry.OrderRef {
	return orderentry.OrderRef{ItemNo: item, OrderNo: order}
}

// TestGeneratedSequencePinned pins the first calls of three streams: the
// inputs are a function of (workload, seed, client) and nothing else, so
// a change to the generator shows here before it shows as a shifted
// baseline.
func TestGeneratedSequencePinned(t *testing.T) {
	cases := []struct {
		workload string
		seed     int64
		client   int
		want     []call
	}{
		{"std-direct", 1, 0, []call{
			{kT3, ref(125, 4982), ref(3650, 145987), 0},
			{kT2, ref(924, 36921), ref(2765, 110561), 0},
			{kT1, ref(25, 961), ref(3010, 120361), 0},
			{kT2, ref(1494, 59721), ref(1839, 73521), 0},
			{kT3, ref(3923, 156916), ref(1778, 71106), 0},
			{kT1, ref(3251, 130001), ref(3869, 154721), 0},
		}},
		{"std-direct", 2, 1, []call{
			{kT1, ref(991, 39602), ref(1093, 43682), 0},
			{kT1, ref(3335, 133362), ref(293, 11682), 0},
			{kT1, ref(71, 2802), ref(119, 4722), 0},
			{kT1, ref(663, 26482), ref(3688, 147482), 0},
			{kT5, ref(1392, 0), ref(0, 0), 0},
			{kT3, ref(994, 39747), ref(345, 13792), 0},
		}},
		{"hot-durable", 1, 3, []call{
			{kT4, ref(1, 1), ref(88, 3481), 0},
			{kT3, ref(1, 7), ref(44, 1727), 0},
			{kDebit, ref(5, 0), ref(0, 0), 1},
			{kCredit, ref(4, 0), ref(0, 0), 3},
			{kDebit, ref(1, 0), ref(0, 0), 2},
			{kDebit, ref(1, 0), ref(0, 0), 1},
		}},
	}
	for _, c := range cases {
		sp, err := specByName(c.workload)
		if err != nil {
			t.Fatal(err)
		}
		g := newGenerator(sp, fullItems, fullOrders, c.seed, c.client)
		for i, want := range c.want {
			got, err := g.next()
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%s seed %d client %d call %d: got %+v, want %+v", c.workload, c.seed, c.client, i, got, want)
			}
		}
	}
}

// TestGeneratorProperties checks what the conservation check and the
// steadiness of the mix rest on.
func TestGeneratorProperties(t *testing.T) {
	for _, sp := range specs {
		shipped := make(map[orderentry.OrderRef]bool)
		paid := make(map[orderentry.OrderRef]bool)
		for client := 0; client < sp.clients; client++ {
			g := newGenerator(sp, quickItems, quickOrders, 7, client)
			var kinds mix
			for i := 0; i < 200; i++ {
				c, err := g.next()
				if err != nil {
					t.Fatalf("%s: %v", sp.name, err)
				}
				kinds[c.kind]++
				switch c.kind {
				case kT1, kT2:
					seen := shipped
					if c.kind == kT2 {
						seen = paid
					}
					if c.a.ItemNo == c.b.ItemNo {
						t.Fatalf("%s: %s on one item twice: %+v", sp.name, c.kind, c)
					}
					for _, r := range []orderentry.OrderRef{c.a, c.b} {
						if seen[r] {
							t.Fatalf("%s: %s handed out %+v twice", sp.name, c.kind, r)
						}
						seen[r] = true
						if k := int(r.OrderNo-1) % quickOrders; k%sp.clients != client {
							t.Fatalf("%s: client %d got order index %d of another client's share", sp.name, client, k)
						}
					}
				case kT3, kT4:
					if c.a.ItemNo == c.b.ItemNo {
						t.Fatalf("%s: %s on one item twice: %+v", sp.name, c.kind, c)
					}
				}
			}
			// Two full decks: the mix holds exactly.
			for k, w := range sp.mix {
				if kinds[k] != 2*w {
					t.Errorf("%s client %d: %d calls of %s in 200, want %d", sp.name, client, kinds[k], kind(k), 2*w)
				}
			}
		}
	}
}

// TestGeneratorPoolExhaustion: a run too long for the population ends
// with an error, not with a silently different mix or a spin.
func TestGeneratorPoolExhaustion(t *testing.T) {
	sp, _ := specByName("std-direct")
	g := newGenerator(sp, 4, 4, 1, 0)
	for i := 0; i < 1000; i++ {
		if _, err := g.next(); err != nil {
			return
		}
	}
	t.Fatal("1000 calls on a 16-order population never exhausted the pools")
}

func TestZipfTable(t *testing.T) {
	z := newZipfTable(4096, 1.5)
	for _, c := range []struct {
		i    int
		want float64
	}{{0, 0.38742762399928865}, {1, 0.5244039740737331}, {9, 0.7730484766959589}, {4095, 1}} {
		if math.Abs(z[c.i]-c.want) > 1e-12 {
			t.Errorf("cdf[%d] = %v, want %v", c.i, z[c.i], c.want)
		}
	}
	for _, c := range []struct {
		x    float64
		want int
	}{{0, 0}, {0.38, 0}, {0.39, 1}, {0.5, 1}, {0.9, 47}, {0.999999, 4095}} {
		if got := z.rank(c.x); got != c.want {
			t.Errorf("rank(%v) = %d, want %d", c.x, got, c.want)
		}
	}
}
