package mem

import "sync/atomic"

// statStripe is one stripe of heap accounting, padded to a cache line so
// stripes on different shards never false-share. Heap.stats holds one stripe
// per allocation shard; snapshots sum across stripes.
type statStripe struct {
	allocs        atomic.Int64
	frees         atomic.Int64
	recycles      atomic.Int64
	liveObjects   atomic.Int64
	liveWords     atomic.Int64
	doubleFrees   atomic.Int64
	corruptions   atomic.Int64
	allocFailures atomic.Int64
	_             [64]byte
}

// Stats is a point-in-time snapshot of heap accounting. Individual counters
// are read atomically but the snapshot as a whole is not; take it at
// quiescence when exact cross-counter invariants matter.
type Stats struct {
	// Allocs and Frees count successful Alloc and Free calls.
	Allocs, Frees int64

	// Recycles counts Allocs satisfied from a free list rather than by
	// carving new arena words.
	Recycles int64

	// LiveObjects and LiveWords describe currently allocated storage.
	// LiveWords is the metric experiment E3 plots: it grows and shrinks
	// with the data structure, unlike a type-stable free-list scheme's
	// footprint.
	LiveObjects, LiveWords int64

	// HighWater is the largest arena extent ever carved, in words. Slabs
	// are claimed whole, so it rounds up to the last slab boundary.
	HighWater int64

	// DoubleFrees counts Free calls on already-freed objects.
	DoubleFrees int64

	// Corruptions counts recycled slots whose poison pattern had been
	// overwritten — evidence that some thread wrote to freed memory — and
	// accesses through wild addresses (see NoteWild).
	Corruptions int64

	// AllocFailures counts Allocs that returned ErrOutOfMemory.
	AllocFailures int64
}

// Stats returns a snapshot of the heap's counters, summed across stripes.
func (h *Heap) Stats() Stats {
	var s Stats
	for i := range h.stats {
		st := &h.stats[i]
		s.Allocs += st.allocs.Load()
		s.Frees += st.frees.Load()
		s.Recycles += st.recycles.Load()
		s.LiveObjects += st.liveObjects.Load()
		s.LiveWords += st.liveWords.Load()
		s.DoubleFrees += st.doubleFrees.Load()
		s.Corruptions += st.corruptions.Load()
		s.AllocFailures += st.allocFailures.Load()
	}
	s.HighWater = h.highWater.Load()
	return s
}

// ShardStats describes one allocation shard's activity and current holdings.
type ShardStats struct {
	// Allocs, Frees and Recycles count operations routed to this shard.
	Allocs, Frees, Recycles int64

	// FreeListed is the approximate number of freed slots currently parked
	// on the shard's local free lists, across all size classes.
	FreeListed int64

	// ChunkFree is the number of unfilled words left in the shard's
	// current bump chunk.
	ChunkFree int64
}

// AllocStats describes the sharded allocator's configuration and per-shard
// state. Like Stats it is a racy snapshot; take it at quiescence when exact
// numbers matter.
type AllocStats struct {
	// Shards is the configured shard count.
	Shards int

	// FillTarget is the per-shard, per-size free-list fill target; shards
	// overflow to the global list at twice this occupancy.
	FillTarget int

	// GlobalFreeListed is the number of freed slots currently parked on
	// the heap's global overflow lists.
	GlobalFreeListed int64

	// PerShard holds one entry per shard, in shard order.
	PerShard []ShardStats
}

// GlobalFreeListed reports the number of freed slots currently parked on the
// heap's global overflow lists. Unlike AllocStats it allocates nothing; the
// timeline capture path reads it every interval.
func (h *Heap) GlobalFreeListed() int64 {
	return h.globalFree.Load()
}

// ShardAllocsInto fills dst[i] with shard i's cumulative allocation count for
// i < min(len(dst), shards) and returns the configured shard count. It is the
// allocation-free slice of AllocStats the timeline capture path uses.
func (h *Heap) ShardAllocsInto(dst []int64) int {
	n := len(h.shards)
	for i := 0; i < n && i < len(dst); i++ {
		dst[i] = h.stats[i].allocs.Load()
	}
	return n
}

// AllocStats returns a snapshot of the sharded allocator's state.
func (h *Heap) AllocStats() AllocStats {
	a := AllocStats{
		Shards:           len(h.shards),
		FillTarget:       shardFillTarget,
		GlobalFreeListed: h.globalFree.Load(),
		PerShard:         make([]ShardStats, len(h.shards)),
	}
	for i := range h.shards {
		sh := &h.shards[i]
		st := &h.stats[i]
		var listed int64
		for size := range sh.counts {
			if n := sh.counts[size].Load(); n > 0 {
				listed += int64(n)
			}
		}
		ce := sh.chunk.Load()
		a.PerShard[i] = ShardStats{
			Allocs:     st.allocs.Load(),
			Frees:      st.frees.Load(),
			Recycles:   st.recycles.Load(),
			FreeListed: listed,
			ChunkFree:  int64(ce>>32) - int64(ce&0xFFFF_FFFF),
		}
	}
	return a
}
