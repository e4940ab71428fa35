package lfrc

import (
	"io"
	"sync"

	"lfrc/internal/census"
	"lfrc/internal/mem"
)

// CensusSnapshot is one whole-heap object-graph census: reachability from
// the declared roots, unreachable-but-counted cycles (the garbage LFRC can
// never free, PAPER.md §7), stored-RC vs. in-edge mismatches, and per-type
// retained-size attribution. See System.Census.
type CensusSnapshot = census.Snapshot

// CensusDelta is the difference between two censuses: per-type growth and
// newly-appeared cycles. See CensusDiff.
type CensusDelta = census.Delta

// CensusCycle is one unreachable-but-counted strongly connected component
// reported by a census.
type CensusCycle = census.Cycle

// CensusRoot is one declared reachability root in a census.
type CensusRoot = census.Root

// WithCensusRoots registers an extra root source for the heap census — and
// so for Audit and Collect, which read the census's one root set: fn is
// called at snapshot time and returns additional object refs to treat as
// reachability roots (one count unit each), beyond the collection anchors
// every open structure registers automatically. Use it when application
// code holds counted references in Go-side variables the census cannot see
// — without declaring them, their subgraphs would be misreported as leaks,
// miscounted by Audit, and freed by Collect. The option may be
// given multiple times; nil refs (0) are ignored.
func WithCensusRoots(fn func() []uint32) Option {
	return optionFunc(func(c *config) {
		if fn != nil {
			c.censusRoots = append(c.censusRoots, fn)
		}
	})
}

// Census takes a whole-heap object-graph snapshot: it walks every allocated
// block, reads each pointer field and reference count with side-effect-free
// atomic loads, and reports reachability from the declared roots (collection
// anchors plus WithCensusRoots), cycle leaks with retained bytes, stored-RC
// vs. actual-in-edge mismatches, and per-type attribution.
//
// The census is strictly read-only — it frees nothing, retains nothing, and
// never helps an in-flight engine operation — so it is safe to take while
// mutators run; such a snapshot is race-clean but approximate. Quiescent
// snapshots are exact. Objects parked by deferred reclamation (epoch limbo
// bins, budget-parked zombies) are classified "limbo", not leaked; drain
// with DrainZombies first when a final verdict is wanted.
//
// The most recent snapshot is also what the lfrc_census_* metrics report.
func (s *System) Census() *CensusSnapshot {
	snap := census.Take(s.censusConfig())
	s.lastCensus.Store(snap)
	return snap
}

// rootSet registers every open structure's anchor, labeled with its kind so
// the census and DOT export can say which structure keeps a subgraph alive.
// A ref may be registered more than once; each registration is one count
// unit an external handle holds.
type rootSet struct {
	mu sync.Mutex
	m  map[uint32]census.Root
}

func (rs *rootSet) add(r mem.Ref, kind string) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.m == nil {
		rs.m = make(map[uint32]census.Root)
	}
	e := rs.m[uint32(r)]
	if e.Ref == 0 {
		e = census.Root{Ref: uint32(r), Name: kind}
	}
	e.Count++
	rs.m[uint32(r)] = e
}

func (rs *rootSet) remove(r mem.Ref) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	e, ok := rs.m[uint32(r)]
	switch {
	case !ok:
	case e.Count <= 1:
		delete(rs.m, uint32(r))
	default:
		e.Count--
		rs.m[uint32(r)] = e
	}
}

// censusConfig assembles the census of this system over its one root set —
// the registered structure anchors plus the WithCensusRoots sources — which
// Census, Audit and Collect all read.
func (s *System) censusConfig() census.Config {
	s.roots.mu.Lock()
	roots := make(map[uint32]census.Root, len(s.roots.m))
	for ref, r := range s.roots.m {
		roots[ref] = r
	}
	s.roots.mu.Unlock()
	for _, fn := range s.censusRoots {
		for _, ref := range fn() {
			if ref == 0 || !s.heap.InArena(mem.Ref(ref)) {
				continue
			}
			r := roots[ref]
			if r.Ref == 0 {
				r = census.Root{Ref: ref, Name: "extra"}
			}
			r.Count++
			roots[ref] = r
		}
	}
	return census.Config{
		Heap:    s.heap,
		Read:    s.rc.SnapshotRead,
		Decode:  s.rc.DecodeLink,
		Roots:   roots,
		Backend: s.ReclaimerName(),
	}
}

// CensusDiff returns to - from: per-type growth and new cycles between two
// snapshots taken on this or any system.
func CensusDiff(from, to *CensusSnapshot) CensusDelta { return census.Diff(from, to) }

// WriteCensusJSON takes a census and writes it as schema-versioned JSON (the
// /debug/lfrc/census.json payload).
func (s *System) WriteCensusJSON(w io.Writer) error { return s.Census().WriteJSON(w) }

// WriteCensusProfile takes a census and writes it in pprof's gzipped
// heap-profile shape (the /debug/lfrc/census.pb.gz payload): samples are
// (objects, bytes) by type under reachable / unreachable / limbo / cycle-leak
// class frames, so
//
//	go tool pprof -top census.pb.gz
//
// ranks leak sources by retained bytes.
func (s *System) WriteCensusProfile(w io.Writer) error { return s.Census().WriteProfile(w) }

// WriteCensusDOT takes a census and renders the object graph as Graphviz DOT
// for small heaps (maxNodes cap, 0 = 256; larger heaps return an error
// rather than a hairball). Nodes are colored by reachability class.
func (s *System) WriteCensusDOT(w io.Writer, maxNodes int) error {
	return s.Census().WriteDOT(w, maxNodes)
}
