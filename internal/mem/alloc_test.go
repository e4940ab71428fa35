package mem

import (
	"errors"
	"testing"
)

func TestAllocInitialState(t *testing.T) {
	h := testHeap(t)
	node, _ := registerPair(t, h)
	r := h.MustAlloc(node)

	if h.IsFreed(r) {
		t.Error("fresh object marked freed")
	}
	if got := h.TypeOf(r); got != node {
		t.Errorf("TypeOf = %d, want %d", got, node)
	}
	if got := h.SizeOf(r); got != HeaderWords+3 {
		t.Errorf("SizeOf = %d, want %d", got, HeaderWords+3)
	}
	if got := h.Load(h.RCAddr(r)); got != 1 {
		t.Errorf("fresh rc = %d, want 1", got)
	}
	if got := h.Load(h.AuxAddr(r)); got != 0 {
		t.Errorf("fresh aux = %d, want 0", got)
	}
	for i := 0; i < 3; i++ {
		if got := h.Load(h.FieldAddr(r, i)); got != 0 {
			t.Errorf("fresh field %d = %#x, want 0 (null)", i, got)
		}
	}
	if got := h.Generation(r); got != 1 {
		t.Errorf("fresh generation = %d, want 1", got)
	}
}

func TestFreePoisonsSlot(t *testing.T) {
	h := testHeap(t)
	node, _ := registerPair(t, h)
	r := h.MustAlloc(node)
	size := h.SizeOf(r)

	if err := h.Free(r); err != nil {
		t.Fatalf("Free: %v", err)
	}
	if !h.IsFreed(r) {
		t.Fatal("freed bit not set")
	}
	if got := h.Load(h.RCAddr(r)); got != Poison {
		t.Errorf("freed rc cell = %#x, want poison", got)
	}
	for a := r + HeaderWords; a < r+Addr(size); a++ {
		if got := h.Load(a); got != Poison {
			t.Errorf("freed payload cell %d = %#x, want poison", a-r, got)
		}
	}
}

func TestDoubleFreeDetected(t *testing.T) {
	h := testHeap(t)
	node, _ := registerPair(t, h)
	r := h.MustAlloc(node)

	if err := h.Free(r); err != nil {
		t.Fatalf("first Free: %v", err)
	}
	if err := h.Free(r); !errors.Is(err, ErrDoubleFree) {
		t.Fatalf("second Free error = %v, want ErrDoubleFree", err)
	}
	if got := h.Stats().DoubleFrees; got != 1 {
		t.Errorf("DoubleFrees = %d, want 1", got)
	}
}

func TestFreeBadRef(t *testing.T) {
	h := testHeap(t)
	registerPair(t, h)
	tests := []struct {
		name string
		ref  Ref
	}{
		{name: "null", ref: 0},
		{name: "reserved", ref: firstAddr - 1},
		{name: "uncarved", ref: Addr(h.next.Load()) + 1000},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := h.Free(tt.ref); !errors.Is(err, ErrBadRef) {
				t.Errorf("Free(%#x) error = %v, want ErrBadRef", tt.ref, err)
			}
		})
	}
}

func TestRecycleBumpsGeneration(t *testing.T) {
	h := testHeap(t)
	node, _ := registerPair(t, h)

	r1 := h.MustAlloc(node)
	if err := h.Free(r1); err != nil {
		t.Fatalf("Free: %v", err)
	}
	r2 := h.MustAlloc(node)
	if r2 != r1 {
		t.Fatalf("free-listed slot not recycled: got %d, had %d", r2, r1)
	}
	if got := h.Generation(r2); got != 2 {
		t.Errorf("recycled generation = %d, want 2", got)
	}
	if got := h.Stats().Recycles; got != 1 {
		t.Errorf("Recycles = %d, want 1", got)
	}
}

func TestRecycleSharesSizeClassAcrossTypes(t *testing.T) {
	h := testHeap(t)
	// Two types with the same total size: a freed slot of one must be
	// reusable by the other. This is the paper's contrast with type-stable
	// free lists (Valois), whose storage "cannot in general be reused for
	// other purposes".
	a := h.MustRegisterType(TypeDesc{Name: "a", NumFields: 2, PtrFields: []int{0}})
	b := h.MustRegisterType(TypeDesc{Name: "b", NumFields: 2})

	r1 := h.MustAlloc(a)
	if err := h.Free(r1); err != nil {
		t.Fatalf("Free: %v", err)
	}
	r2 := h.MustAlloc(b)
	if r2 != r1 {
		t.Fatalf("slot not shared across same-size types: got %d, had %d", r2, r1)
	}
	if got := h.TypeOf(r2); got != b {
		t.Errorf("recycled slot type = %d, want %d", got, b)
	}
}

func TestDistinctSizeClassesDoNotShare(t *testing.T) {
	h := testHeap(t)
	small := h.MustRegisterType(TypeDesc{Name: "small", NumFields: 1})
	large := h.MustRegisterType(TypeDesc{Name: "large", NumFields: 8})

	r1 := h.MustAlloc(small)
	if err := h.Free(r1); err != nil {
		t.Fatalf("Free: %v", err)
	}
	r2 := h.MustAlloc(large)
	if r2 == r1 {
		t.Fatal("large allocation recycled a small slot")
	}
}

func TestUseAfterFreeCorruptionDetected(t *testing.T) {
	h := testHeap(t)
	node, _ := registerPair(t, h)
	r := h.MustAlloc(node)
	rc := h.RCAddr(r)

	if err := h.Free(r); err != nil {
		t.Fatalf("Free: %v", err)
	}
	// A stale thread increments the rc of a freed object — the failure
	// mode the paper's §5 discussion of CAS-only counting describes.
	h.Store(rc, Poison+1)

	r2 := h.MustAlloc(node)
	if r2 != r {
		t.Fatalf("expected slot reuse, got %d, had %d", r2, r)
	}
	if got := h.Stats().Corruptions; got != 1 {
		t.Errorf("Corruptions = %d, want 1", got)
	}
	// The slot must have been repaired by reinitialization.
	if got := h.Load(rc); got != 1 {
		t.Errorf("recycled rc = %#x, want 1", got)
	}
}

func TestPoisonCheckDisabled(t *testing.T) {
	h := NewHeap(WithPoisonCheck(false))
	node := h.MustRegisterType(TypeDesc{Name: "node", NumFields: 1})
	r := h.MustAlloc(node)
	if err := h.Free(r); err != nil {
		t.Fatalf("Free: %v", err)
	}
	h.Store(h.RCAddr(r), 12345)
	h.MustAlloc(node)
	if got := h.Stats().Corruptions; got != 0 {
		t.Errorf("Corruptions = %d with poison check disabled, want 0", got)
	}
}

func TestStatsAccounting(t *testing.T) {
	h := testHeap(t)
	node, leaf := registerPair(t, h)

	refs := make([]Ref, 0, 10)
	for i := 0; i < 6; i++ {
		refs = append(refs, h.MustAlloc(node))
	}
	for i := 0; i < 4; i++ {
		refs = append(refs, h.MustAlloc(leaf))
	}
	s := h.Stats()
	if s.Allocs != 10 || s.LiveObjects != 10 {
		t.Errorf("after allocs: Allocs=%d LiveObjects=%d, want 10/10", s.Allocs, s.LiveObjects)
	}
	wantWords := int64(6*(HeaderWords+3) + 4*(HeaderWords+1))
	if s.LiveWords != wantWords {
		t.Errorf("LiveWords = %d, want %d", s.LiveWords, wantWords)
	}

	for _, r := range refs {
		if err := h.Free(r); err != nil {
			t.Fatalf("Free: %v", err)
		}
	}
	s = h.Stats()
	if s.Frees != 10 || s.LiveObjects != 0 || s.LiveWords != 0 {
		t.Errorf("after frees: Frees=%d LiveObjects=%d LiveWords=%d, want 10/0/0",
			s.Frees, s.LiveObjects, s.LiveWords)
	}
	if s.HighWater == 0 {
		t.Error("HighWater not recorded")
	}
}

func TestBumpSkipsSegmentBoundary(t *testing.T) {
	h := NewHeap(WithMaxWords(4 * segWords))
	big := h.MustRegisterType(TypeDesc{Name: "big", NumFields: MaxFields})

	var prevEnd uint64
	seen := map[uint32]bool{}
	for {
		r, err := h.Alloc(big)
		if err != nil {
			break
		}
		start := uint64(r)
		end := start + uint64(HeaderWords+MaxFields)
		if start>>segBits != (end-1)>>segBits {
			t.Fatalf("object [%d,%d) straddles a segment boundary", start, end)
		}
		if start < prevEnd {
			t.Fatalf("bump went backwards: start %d < previous end %d", start, prevEnd)
		}
		prevEnd = end
		seen[uint32(start>>segBits)] = true
	}
	if len(seen) < 2 {
		t.Fatalf("test did not cross segments (saw %d segments)", len(seen))
	}
}

func TestWalkVisitsEveryObject(t *testing.T) {
	h := NewHeap(WithMaxWords(4 * segWords))
	node, leaf := registerPair(t, h)

	want := map[Ref]bool{} // ref -> freed
	for i := 0; i < 500; i++ {
		typ := node
		if i%3 == 0 {
			typ = leaf
		}
		r := h.MustAlloc(typ)
		want[r] = false
		if i%5 == 0 {
			if err := h.Free(r); err != nil {
				t.Fatalf("Free: %v", err)
			}
			want[r] = true
		}
	}
	// Reallocate some freed slots so WalkBlocks sees recycled objects too.
	for i := 0; i < 20; i++ {
		r := h.MustAlloc(node)
		want[r] = false
	}

	got := map[Ref]bool{}
	h.WalkBlocks(func(b Block) bool {
		if _, dup := got[b.Ref]; dup {
			t.Fatalf("WalkBlocks visited %d twice", b.Ref)
		}
		got[b.Ref] = b.Freed
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("WalkBlocks visited %d slots, want %d", len(got), len(want))
	}
	for r, freed := range want {
		if got[r] != freed {
			t.Errorf("slot %d freed = %v, want %v", r, got[r], freed)
		}
	}
}

func TestWalkEarlyStop(t *testing.T) {
	h := testHeap(t)
	_, leaf := registerPair(t, h)
	for i := 0; i < 10; i++ {
		h.MustAlloc(leaf)
	}
	n := 0
	h.WalkBlocks(func(Block) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Errorf("WalkBlocks visited %d slots after early stop, want 3", n)
	}
}

func TestWalkAcrossSegments(t *testing.T) {
	h := NewHeap(WithMaxWords(4 * segWords))
	big := h.MustRegisterType(TypeDesc{Name: "big", NumFields: MaxFields})
	n := 0
	for {
		if _, err := h.Alloc(big); err != nil {
			break
		}
		n++
	}
	visited := 0
	h.WalkBlocks(func(Block) bool {
		visited++
		return true
	})
	if visited != n {
		t.Errorf("WalkBlocks visited %d objects across segments, want %d", visited, n)
	}
}
