package mem

import (
	"sort"
	"testing"
)

// TestWalkBlocksReportsTypedBlocks: WalkBlocks is the census's heap iterator;
// each live block must surface with its ref, type, size and generation, and
// freed slots must be flagged rather than skipped.
func TestWalkBlocksReportsTypedBlocks(t *testing.T) {
	h := NewHeap()
	small := h.MustRegisterType(TypeDesc{Name: "small", NumFields: 1})
	big := h.MustRegisterType(TypeDesc{Name: "big", NumFields: 5, PtrFields: []int{0, 4}})

	s1, err := h.Alloc(small)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	b1, err := h.Alloc(big)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	dead, err := h.Alloc(small)
	if err != nil {
		t.Fatalf("Alloc: %v", err)
	}
	if err := h.Free(dead); err != nil {
		t.Fatalf("Free: %v", err)
	}

	got := map[Ref]Block{}
	h.WalkBlocks(func(b Block) bool {
		if _, dup := got[b.Ref]; dup {
			t.Errorf("block %d visited twice", b.Ref)
		}
		got[b.Ref] = b
		return true
	})
	if len(got) != 3 {
		t.Fatalf("visited %d blocks, want 3: %+v", len(got), got)
	}
	if b := got[s1]; b.Type != small || b.Size != HeaderWords+1 || b.Freed {
		t.Errorf("small block = %+v", b)
	}
	if b := got[b1]; b.Type != big || b.Size != HeaderWords+5 || b.Freed {
		t.Errorf("big block = %+v", b)
	}
	if b := got[dead]; !b.Freed {
		t.Errorf("freed slot not flagged: %+v", b)
	}

	// The per-block fields must agree with the word-at-a-time accessors.
	for r, b := range got {
		if b.Type != h.TypeOf(r) || b.Size != h.SizeOf(r) || b.Freed != h.IsFreed(r) || b.Gen != h.Generation(r) {
			t.Errorf("block %d disagrees with accessors: %+v", r, b)
		}
	}
}

// TestWalkBlocksEarlyStop: returning false halts the walk.
func TestWalkBlocksEarlyStop(t *testing.T) {
	h := NewHeap()
	tid := h.MustRegisterType(TypeDesc{Name: "t", NumFields: 1})
	for i := 0; i < 8; i++ {
		if _, err := h.Alloc(tid); err != nil {
			t.Fatalf("Alloc: %v", err)
		}
	}
	visited := 0
	h.WalkBlocks(func(Block) bool {
		visited++
		return visited < 3
	})
	if visited != 3 {
		t.Errorf("visited %d blocks after early stop, want 3", visited)
	}
}

// TestWalkBlocksVisitsInAddressOrder: the walk must see exactly the carved
// slots, live and freed, in ascending address order.
func TestWalkBlocksVisitsInAddressOrder(t *testing.T) {
	h := NewHeap(WithAllocShards(1))
	a := h.MustRegisterType(TypeDesc{Name: "a", NumFields: 2})
	b := h.MustRegisterType(TypeDesc{Name: "b", NumFields: 7})
	seen := map[Ref]bool{}
	var carved []Ref
	for i := 0; i < 16; i++ {
		tid := a
		if i%3 == 0 {
			tid = b
		}
		r, err := h.Alloc(tid)
		if err != nil {
			t.Fatalf("Alloc: %v", err)
		}
		if !seen[r] { // a freed slot is recycled, not carved again
			seen[r] = true
			carved = append(carved, r)
		}
		if i%5 == 0 {
			if err := h.Free(r); err != nil {
				t.Fatalf("Free: %v", err)
			}
		}
	}
	sort.Slice(carved, func(i, j int) bool { return carved[i] < carved[j] })
	var walked []Ref
	h.WalkBlocks(func(blk Block) bool {
		walked = append(walked, blk.Ref)
		return true
	})
	if len(walked) != len(carved) {
		t.Fatalf("WalkBlocks saw %d slots, %d were carved", len(walked), len(carved))
	}
	for i := range walked {
		if walked[i] != carved[i] {
			t.Errorf("slot %d: WalkBlocks=%d, carved=%d", i, walked[i], carved[i])
		}
	}
}
