package main

import (
	"semcc/internal/core"
	"semcc/internal/dist"
	"semcc/internal/obs"
	"semcc/internal/oodb"
	"semcc/internal/ordercluster"
	"semcc/internal/orderentry"
	"semcc/internal/wal"
)

// sut is the system under test: a populated order-entry database on the
// direct engine or on a cluster, with one group-commit journal and one
// attached-but-disabled Obs per engine.
type sut struct {
	sp            spec
	items, orders int
	app           *orderentry.App
	// peers are the per-node apps (the one app of the direct engine);
	// the traced phase builds its per-client fronts over them.
	peers    []*orderentry.App
	cluster  *dist.Cluster // nil on the direct engine
	journals []wal.Journal
	nodeObs  []*obs.Obs
	// coordObs is the coordinator's Obs; it keeps every finished span
	// tree of the traced phase (nil on the direct engine, where trees
	// are read off the transaction instead).
	coordObs *obs.Obs
}

func (sp spec) journalConfig() wal.Config {
	cfg := wal.Config{Mode: wal.ModeGroup}
	if sp.parked {
		cfg.FlushDelay, cfg.DeviceSleep = flushDelay, true
	}
	return cfg
}

// openSUT opens the engine and populates items × orders.
func openSUT(sp spec, items, orders int) (*sut, error) {
	s := &sut{sp: sp, items: items, orders: orders}
	pop := orderentry.Config{Items: items, OrdersPerItem: orders, InitialQOH: initialQOH, Price: 10, OrderQuantity: 1}
	options := func(int) oodb.Options {
		j := wal.New(sp.journalConfig())
		o := obs.New(obs.Config{})
		s.journals = append(s.journals, j)
		s.nodeObs = append(s.nodeObs, o)
		return oodb.Options{PoolFrames: sp.poolFrames, Journal: j, Obs: o}
	}
	if sp.nodes == 0 {
		app, err := orderentry.Setup(oodb.Open(options(0)), pop)
		if err != nil {
			s.close()
			return nil, err
		}
		s.app, s.peers = app, []*orderentry.App{app}
		return s, nil
	}
	s.cluster = dist.OpenCluster(sp.nodes, options)
	s.coordObs = obs.New(obs.Config{RecentSpans: 1 << 20})
	s.cluster.AttachObs(s.coordObs)
	app, err := ordercluster.Setup(s.cluster, pop)
	if err != nil {
		s.close()
		return nil, err
	}
	s.app, s.peers = app, app.Peers
	s.cluster.StartDetector(detectorEvery)
	return s, nil
}

// close stops the detector, the transport and the journal writers.
func (s *sut) close() {
	if s.cluster != nil {
		s.cluster.Close()
	}
	for _, j := range s.journals {
		j.Close()
	}
}

func (s *sut) dbs() []*oodb.DB {
	out := make([]*oodb.DB, len(s.peers))
	for i, p := range s.peers {
		out[i] = p.DB
	}
	return out
}

// setTracing switches gated collection on every Obs of the system.
func (s *sut) setTracing(on bool) {
	for _, o := range s.nodeObs {
		o.SetEnabled(on)
	}
	s.coordObs.SetEnabled(on)
}

// counters are the always-on counts of the engine and storage layers,
// summed over nodes.
type counters struct {
	eng                  core.StatsSnapshot
	hits, misses, evicts uint64
}

func (s *sut) counters() counters {
	var c counters
	for _, db := range s.dbs() {
		c.eng = c.eng.Add(db.Engine().Stats())
		h, m, e := db.Store().PoolStats()
		c.hits, c.misses, c.evicts = c.hits+h, c.misses+m, c.evicts+e
	}
	return c
}

// journalCounts are one epoch's journal totals, summed over nodes.
type journalCounts struct {
	records, flushes, bytes uint64
}

func (a *journalCounts) add(b journalCounts) {
	a.records += b.records
	a.flushes += b.flushes
	a.bytes += b.bytes
}

// cutJournals closes a journal epoch at quiescence: it forces every
// journal durable, returns the durable images with their counts, and
// truncates the journals (Journal.Reset's "reuse across benchmark runs")
// so that no epoch pays for the garbage of the ones before it.
func (s *sut) cutJournals() ([][]byte, journalCounts) {
	images := make([][]byte, len(s.journals))
	var n journalCounts
	for i, j := range s.journals {
		j.Sync()
		st := j.Stats()
		images[i] = j.DurableBytes()
		n.add(journalCounts{records: uint64(st.Records), flushes: st.Flushes, bytes: uint64(len(images[i]))})
		j.Reset()
	}
	return images, n
}
