package mem

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"lfrc/internal/fault"
	"lfrc/internal/obs"
	"lfrc/internal/stripe"
)

const (
	segBits  = 16
	segWords = 1 << segBits
	segMask  = segWords - 1
	maxSegs  = 1024

	// firstAddr is where bump allocation starts; low addresses are
	// reserved so that 0 remains the null reference.
	firstAddr = 8
)

type segment [segWords]uint64

// Heap is the simulated shared heap. All methods are safe for concurrent use
// unless noted otherwise; cell accesses are individually atomic.
type Heap struct {
	segs  [maxSegs]atomic.Pointer[segment]
	next  atomic.Uint64 // bump pointer (word index); advances one slab at a time
	limit uint64        // arena size in words

	// shards stripe the allocator: per-shard free lists and bump chunks.
	// Goroutines are routed by stripe.Hint; see shard.go.
	shards []allocShard

	// global holds the overflow free lists shards migrate to and refill
	// from, one Treiber stack per object size; globalFree tracks their
	// total occupancy.
	global     [maxObjWords + 1]freeStack
	globalFree atomic.Int64

	typeMu    sync.Mutex
	typeCount atomic.Uint32
	types     [maxTypes]TypeDesc

	poisonCheck bool

	// obs is the optional flight recorder shared with the RC layer; nil
	// means disabled (every call on it is a single nil check).
	obs *obs.Recorder

	// fj is the optional fault injector shared with the RC layer; nil
	// means disabled. Alloc consults it to force exhaustion (fault.MemAlloc)
	// or the allocator slow path (fault.MemAllocSlow).
	fj *fault.Injector

	// stats is striped in lockstep with shards (stats[i] counts work
	// routed to shards[i]); highWater is global but updated only once per
	// slab claim.
	stats     []statStripe
	highWater atomic.Int64

	// sink absorbs accesses to unmapped addresses (see wildCell).
	sink uint64

	// epoch is the reclamation epoch: a coarse logical clock advanced by
	// the lifecycle auditor (one tick per audit pass). Alloc and Free
	// stamp their flight events with it so a timeline shows *when*, in
	// audit time, a slot was carved, freed, or reused.
	epoch atomic.Uint64
}

// Option configures a Heap.
type Option func(*heapConfig)

type heapConfig struct {
	maxWords    uint64
	poisonCheck bool

	// obs is the optional flight recorder shared with the RC layer; nil
	// means disabled (every call on it is a single nil check).
	obs         *obs.Recorder
	allocShards int
	fj          *fault.Injector
}

// WithMaxWords caps the arena at n 64-bit words. The default is 64Mi words
// (512 MiB of simulated memory).
func WithMaxWords(n uint64) Option {
	return func(c *heapConfig) { c.maxWords = n }
}

// WithPoisonCheck enables or disables verification, at allocation time, that
// a recycled slot's poison pattern is intact. It is enabled by default; the
// check is how experiment E1 observes use-after-free corruption.
func WithPoisonCheck(on bool) Option {
	return func(c *heapConfig) { c.poisonCheck = on }
}

// WithAllocShards sets the number of allocation shards — per-shard free
// lists and bump chunks — the heap stripes its allocator across. The default
// is runtime.GOMAXPROCS(0); values are clamped to [1, 64]. Pin it explicitly
// for reproducible benchmarks.
func WithAllocShards(n int) Option {
	return func(c *heapConfig) { c.allocShards = n }
}

// WithObserver attaches a flight recorder: allocator events (alloc, free,
// cross-shard steals) are sampled into it, and poison-corruption detection
// captures a postmortem of the trailing events that touched the damaged slot.
// A nil recorder leaves observation disabled.
func WithObserver(r *obs.Recorder) Option {
	return func(c *heapConfig) { c.obs = r }
}

// WithFault attaches a fault injector: Alloc consults it at the declared
// mem.alloc (forced ErrOutOfMemory) and mem.alloc.slow (forced allocator
// slow path) injection points. A nil injector leaves injection disabled.
func WithFault(in *fault.Injector) Option {
	return func(c *heapConfig) { c.fj = in }
}

// NewHeap creates an empty heap.
func NewHeap(opts ...Option) *Heap {
	cfg := heapConfig{
		maxWords:    64 << 20,
		poisonCheck: true,
	}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.maxWords > uint64(maxSegs)*segWords {
		cfg.maxWords = uint64(maxSegs) * segWords
	}
	if cfg.maxWords < segWords {
		cfg.maxWords = segWords
	}
	shards := stripe.Clamp(cfg.allocShards, runtime.GOMAXPROCS(0))
	h := &Heap{
		limit:       cfg.maxWords,
		poisonCheck: cfg.poisonCheck,
		obs:         cfg.obs,
		fj:          cfg.fj,
		shards:      make([]allocShard, shards),
		stats:       make([]statStripe, shards),
	}
	h.next.Store(firstAddr)
	h.ensureSegment(0)
	return h
}

// Shards reports the number of allocation shards the heap was built with.
func (h *Heap) Shards() int { return len(h.shards) }

// Epoch returns the current reclamation epoch (see AdvanceEpoch).
func (h *Heap) Epoch() uint64 { return h.epoch.Load() }

// AdvanceEpoch ticks the reclamation epoch and returns the new value. The
// lifecycle auditor calls it once per audit pass; allocator flight events are
// stamped with the epoch they happened in.
func (h *Heap) AdvanceEpoch() uint64 { return h.epoch.Add(1) }

// shardIndex routes the calling goroutine to an allocation shard (and its
// stat stripe). A locality hint only: any goroutine may touch any shard.
func (h *Heap) shardIndex() int { return stripe.Hint(len(h.shards)) }

// ensureSegment lazily installs the backing array for segment i.
func (h *Heap) ensureSegment(i uint32) *segment {
	if s := h.segs[i].Load(); s != nil {
		return s
	}
	s := new(segment)
	if h.segs[i].CompareAndSwap(nil, s) {
		return s
	}
	return h.segs[i].Load()
}

// cell returns the storage cell for address a. An address outside the
// segment table or in an unmapped segment is a wild pointer — a stomped link
// followed by a corrupted count, as E1's naive load produces — and is routed
// to wildCell instead of faulting the process.
func (h *Heap) cell(a Addr) *uint64 {
	if i := uint32(a) >> segBits; i < maxSegs {
		if seg := h.segs[i].Load(); seg != nil {
			return &seg[uint32(a)&segMask]
		}
	}
	return h.wildCell(a)
}

// wildCell counts an access to an unmapped address as heap corruption,
// captures a postmortem naming it, and hands back the heap's sink cell so
// the access completes harmlessly. The sink holds no object: whatever a
// wild access stores there, no live cell changes.
//
//go:noinline
func (h *Heap) wildCell(a Addr) *uint64 {
	h.NoteWild(a)
	return &h.sink
}

// NoteWild counts a wild address — unmapped, or a link naming no carved arena
// word — as heap corruption, capturing a postmortem. Reclamation calls it
// instead of following such a link.
func (h *Heap) NoteWild(a Addr) {
	h.stats[h.shardIndex()].corruptions.Add(1)
	h.obs.CapturePostmortem("wild address", uint32(a))
}

// Load atomically reads the cell at a.
func (h *Heap) Load(a Addr) uint64 {
	return atomic.LoadUint64(h.cell(a))
}

// Store atomically writes v into the cell at a.
func (h *Heap) Store(a Addr, v uint64) {
	atomic.StoreUint64(h.cell(a), v)
}

// CAS atomically compares-and-swaps the cell at a.
func (h *Heap) CAS(a Addr, old, new uint64) bool {
	return atomic.CompareAndSwapUint64(h.cell(a), old, new)
}

// RCAddr returns the address of an object's reference-count cell.
func (h *Heap) RCAddr(r Ref) Addr { return r + 1 }

// AuxAddr returns the address of an object's aux cell (free-list link while
// the object is freed; available to reclamation machinery while it is live).
func (h *Heap) AuxAddr(r Ref) Addr { return r + 2 }

// FieldAddr returns the address of payload field i of object r. It does not
// validate i against the object's type; callers index within the TypeDesc
// they registered.
func (h *Heap) FieldAddr(r Ref, i int) Addr { return r + HeaderWords + Addr(i) }

// RegisterType adds a type descriptor and returns its TypeID. Registration
// is serialized and must complete before the heap is used concurrently with
// the new type; lookups by running threads never block.
func (h *Heap) RegisterType(d TypeDesc) (TypeID, error) {
	if err := d.validate(); err != nil {
		return 0, err
	}
	h.typeMu.Lock()
	defer h.typeMu.Unlock()
	n := h.typeCount.Load()
	if n >= maxTypes {
		return 0, ErrTooManyTypes
	}
	d.PtrFields = append([]int(nil), d.PtrFields...)
	h.types[n] = d
	h.typeCount.Store(n + 1)
	return TypeID(n), nil
}

// MustRegisterType is RegisterType for static setup code; it panics on error.
func (h *Heap) MustRegisterType(d TypeDesc) TypeID {
	t, err := h.RegisterType(d)
	if err != nil {
		panic(err)
	}
	return t
}

// Type returns the descriptor for id. The returned descriptor shares the
// registered PtrFields slice; callers must not modify it.
func (h *Heap) Type(id TypeID) (TypeDesc, error) {
	if uint32(id) >= h.typeCount.Load() {
		return TypeDesc{}, fmt.Errorf("%w: unknown type id %d", ErrBadType, id)
	}
	return h.types[id], nil
}

// typeOf is the fast internal lookup; the id comes from a header we wrote.
func (h *Heap) typeOf(id TypeID) *TypeDesc { return &h.types[id] }

// Header introspection -------------------------------------------------------

// SizeOf returns the total size in words of the object at r.
func (h *Heap) SizeOf(r Ref) int { return headerSize(h.Load(r)) }

// TypeOf returns the TypeID of the object at r.
func (h *Heap) TypeOf(r Ref) TypeID { return headerType(h.Load(r)) }

// IsFreed reports whether the object at r currently has its freed bit set.
func (h *Heap) IsFreed(r Ref) bool { return headerFreed(h.Load(r)) }

// Generation returns the allocation generation of the slot at r. It
// increments every time the slot is reallocated, which lets diagnostics
// detect stale references.
func (h *Heap) Generation(r Ref) uint32 { return headerGen(h.Load(r)) }

// InArena reports whether a names a word inside the currently carved arena.
func (h *Heap) InArena(a Addr) bool {
	return a >= firstAddr && uint64(a) < h.next.Load()
}

// Block is one object slot as decoded from a single atomic header read. All
// fields describe the same instant: a block observed live here cannot have
// been half-freed between separate TypeOf/IsFreed calls, which matters to
// observers (the heap census) that walk while mutators run.
type Block struct {
	Ref   Ref
	Type  TypeID
	Size  int // total words, header included
	Freed bool
	Gen   uint32
}

// WalkBlocks visits every object slot ever carved from the arena, live or
// freed, in address order, until fn returns false. It decodes the whole
// header once per slot and hands the caller a self-consistent Block. It
// tolerates concurrent mutation: each header is one atomic load. Words below
// the global cursor that hold no object — unfilled shard-chunk tails,
// remainders abandoned on refill, slivers skipped at segment boundaries —
// were never written and still read zero, whose size field is invalid;
// WalkBlocks steps over them word by word. Exact answers (the census at
// quiescence, ScanPoison) need a quiescent heap.
func (h *Heap) WalkBlocks(fn func(b Block) bool) {
	end := h.next.Load()
	for a := uint64(firstAddr); a < end; {
		hdr := h.Load(Addr(a))
		size := headerSize(hdr)
		if size < HeaderWords || size > maxObjWords {
			a++
			continue
		}
		b := Block{
			Ref:   Ref(a),
			Type:  headerType(hdr),
			Size:  size,
			Freed: headerFreed(hdr),
			Gen:   headerGen(hdr),
		}
		if !fn(b) {
			return
		}
		a += uint64(size)
	}
}
