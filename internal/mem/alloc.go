package mem

import (
	"fmt"

	"lfrc/internal/fault"
	"lfrc/internal/obs"
)

// Alloc carves or recycles a slot for an object of type t. The new object
// has reference count 1 (the reference returned to the caller, mirroring the
// paper's convention that a constructor counts the pointer returned by new),
// null pointer fields, and zeroed scalar fields.
//
// Alloc recycles before it carves: it tries the calling goroutine's shard
// free list for the type's size class, then the global overflow list (refilling
// the shard with a batch), then sibling shards, and only then bumps the
// shard's chunk — claiming a fresh slab from the arena when the chunk is
// spent. When recycling, it verifies that the slot's poison pattern is
// intact; a damaged pattern means some thread wrote to freed memory, and is
// recorded in Stats().Corruptions.
func (h *Heap) Alloc(t TypeID) (Ref, error) {
	if uint32(t) >= h.typeCount.Load() {
		return 0, fmt.Errorf("%w: unknown type id %d", ErrBadType, t)
	}
	d := h.typeOf(t)
	size := d.size()

	t0 := h.obs.Sample()
	idx := h.shardIndex()
	sh := &h.shards[idx]
	st := &h.stats[idx]

	// Injected exhaustion takes the same accounting path a real one does,
	// so degraded-mode policies above see an indistinguishable failure.
	if h.fj.Inject(fault.MemAlloc) {
		st.allocFailures.Add(1)
		return 0, fmt.Errorf("%w (injected)", ErrOutOfMemory)
	}

	var r Ref
	recycled := false
	if !h.fj.Inject(fault.MemAllocSlow) {
		r, recycled = sh.popLocal(h, size)
	}
	if !recycled {
		r, recycled = h.popGlobal(sh, size)
	}
	stolen := false
	if !recycled {
		r, recycled = h.stealFree(idx, size)
		stolen = recycled
	}
	if !recycled {
		var err error
		r, err = h.shardBump(sh, size)
		if err != nil {
			st.allocFailures.Add(1)
			return 0, err
		}
	}

	gen := uint32(1)
	if recycled {
		st.recycles.Add(1)
		old := h.Load(r)
		gen = headerGen(old) + 1
		if h.poisonCheck {
			h.checkPoison(r, size, st)
		}
	}

	// Initialize payload (null refs / zero scalars), then rc, then the
	// header last so the freed bit clears only once the slot is sound.
	for i := 0; i < d.NumFields; i++ {
		h.Store(h.FieldAddr(r, i), 0)
	}
	h.Store(h.AuxAddr(r), 0)
	h.Store(h.RCAddr(r), 1)
	h.Store(r, packHeader(size, t, false, gen))

	st.allocs.Add(1)
	st.liveObjects.Add(1)
	st.liveWords.Add(int64(size))
	if stolen {
		h.obs.Note(obs.KindSteal, uint32(r), 0)
	}
	// Old carries the slot generation, New the reclamation epoch, so a
	// lifecycle timeline distinguishes a fresh carve (gen 1) from a reuse
	// and places both in audit time.
	h.obs.RecordT(t0, obs.KindAlloc, uint32(r), 0, recycled, 0, gen, uint32(h.epoch.Load()))
	return r, nil
}

// MustAlloc is Alloc for code paths where exhaustion is fatal (tests,
// examples); it panics on error.
func (h *Heap) MustAlloc(t TypeID) Ref {
	r, err := h.Alloc(t)
	if err != nil {
		panic(err)
	}
	return r
}

// Free returns the object at r to the calling goroutine's shard free list.
// The rc cell and payload cells are poisoned, and the freed bit is set with
// CAS so a concurrent double free is detected rather than corrupting the
// free list.
//
// Free does not consult or require a zero reference count: that policy
// belongs to package core (LFRCDestroy). Freeing an object that other
// threads still reference will surface as poison corruption — which is the
// behaviour the paper's methodology exists to prevent.
func (h *Heap) Free(r Ref) error {
	t0 := h.obs.Sample()
	idx := h.shardIndex()
	st := &h.stats[idx]

	if r == 0 || !h.InArena(r) {
		return fmt.Errorf("%w: %#x", ErrBadRef, r)
	}
	for {
		hdr := h.Load(r)
		size := headerSize(hdr)
		if size < HeaderWords || size > maxObjWords {
			return fmt.Errorf("%w: %#x has no object header", ErrBadRef, r)
		}
		if headerFreed(hdr) {
			st.doubleFrees.Add(1)
			// OK=false marks the free as rejected: the lifecycle
			// auditor reads this as a double-free signal.
			h.obs.RecordT(t0, obs.KindFree, uint32(r), 0, false, 0,
				headerGen(hdr), uint32(h.epoch.Load()))
			return ErrDoubleFree
		}
		if h.CAS(r, hdr, hdr|hdrFreedBit) {
			break
		}
	}

	hdr := h.Load(r)
	size := headerSize(hdr)
	gen := headerGen(hdr)
	h.Store(h.RCAddr(r), Poison)
	for a := r + HeaderWords; a < r+Addr(size); a++ {
		h.Store(a, Poison)
	}

	st.frees.Add(1)
	st.liveObjects.Add(-1)
	st.liveWords.Add(-int64(size))
	// Record before pushLocal publishes the slot: once it is on a free
	// list a sibling may recycle it and rewrite the header.
	h.obs.RecordT(t0, obs.KindFree, uint32(r), 0, true, 0,
		gen, uint32(h.epoch.Load()))
	h.shards[idx].pushLocal(h, r, size)
	return nil
}

// checkPoison verifies a recycled slot's poison words and repairs any damage
// so corruption is counted once, not compounded.
func (h *Heap) checkPoison(r Ref, size int, st *statStripe) {
	if h.firstDamage(r, size) != 0 {
		st.corruptions.Add(1)
		h.obs.CapturePostmortem("poison corruption on recycled slot", uint32(r))
	}
}

// firstDamage returns the offset from r of the first freed-slot cell whose
// poison pattern was overwritten (1 is the count cell), or 0 when the
// pattern is intact. The aux cell carries the free-list link and is exempt.
func (h *Heap) firstDamage(r Ref, size int) int {
	if h.Load(h.RCAddr(r)) != Poison {
		return 1
	}
	for off := HeaderWords; off < size; off++ {
		if h.Load(r+Addr(off)) != Poison {
			return off
		}
	}
	return 0
}

// Damage is one freed slot whose poison pattern was overwritten — evidence
// that some thread wrote to freed memory. Offset is the first damaged cell's
// offset from the slot base (1 = the count cell).
type Damage struct {
	Ref    Ref
	Offset int
}

// ScanPoison checks the poison pattern of every freed slot, returning one
// Damage per overwritten slot. Unlike the recycle-time check it finds damage
// in slots not yet reused. The heap must be quiescent.
func (h *Heap) ScanPoison() []Damage {
	var out []Damage
	h.WalkBlocks(func(b Block) bool {
		if b.Freed {
			if off := h.firstDamage(b.Ref, b.Size); off != 0 {
				out = append(out, Damage{Ref: b.Ref, Offset: off})
			}
		}
		return true
	})
	return out
}
