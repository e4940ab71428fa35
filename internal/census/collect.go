package census

import "lfrc/internal/mem"

// Result describes one backup-collection pass.
type Result struct {
	// Marked is the number of live objects reachable from the roots.
	Marked int

	// Freed is the number of unreachable objects reclaimed — with a correct
	// mutator, exactly the cyclic garbage LFRC cannot reclaim on its own
	// and what it pins.
	Freed int

	// RCAdjusted counts surviving counts decremented because a swept
	// object pointed at them.
	RCAdjusted int
}

// Collect is the stop-the-world backup tracing collector the paper's §7
// proposes: "integrate a tracing collector that can be invoked occasionally
// in order to identify and collect cyclic garbage". It classifies the heap
// exactly as Take does and frees the unreachable class. Reachable objects
// survive, and so does limbo: deferred-reclamation husks are already on a
// path to the allocator, and freeing them here would free them twice.
//
// A garbage cycle's counts never reach zero, so its members are freed
// regardless of their counts. Each link a swept object held into a survivor
// is re-decoded and its full weight subtracted from that survivor's count
// (1 under figure2, the unspent stash under split), clamping at zero, so
// ordinary LFRC reclamation stays exact afterwards.
//
// The heap must be quiescent for the whole pass: no mutator, no in-flight
// engine operation.
func Collect(cfg Config) Result {
	s := &Snapshot{}
	g := materialize(cfg, s)
	classify(cfg, s, g)

	h, decode := cfg.Heap, cfg.decoder()
	res := Result{Marked: int(s.Reachable.Objects)}
	for i := range g.nodes {
		n := &g.nodes[i]
		if n.class != classUnreachable {
			continue
		}
		d, err := h.Type(n.typ)
		if err != nil {
			continue
		}
		for _, f := range d.PtrFields {
			t, w := decode(cfg.Read(h.FieldAddr(mem.Ref(n.ref), f)))
			j, ok := g.index[uint32(t)]
			if t == 0 || !ok || g.nodes[j].class == classUnreachable {
				continue // null, dangling, or fellow garbage
			}
			a := h.RCAddr(t)
			old := h.Load(a)
			if old >= mem.Poison {
				continue
			}
			nw := uint64(0)
			if old > uint64(w) {
				nw = old - uint64(w)
			}
			h.Store(a, nw)
			res.RCAdjusted++
		}
	}
	for i := range g.nodes {
		if g.nodes[i].class == classUnreachable && h.Free(mem.Ref(g.nodes[i].ref)) == nil {
			res.Freed++
		}
	}
	return res
}
