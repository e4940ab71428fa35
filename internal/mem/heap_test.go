package mem

import (
	"errors"
	"testing"
)

func testHeap(t *testing.T, opts ...Option) *Heap {
	t.Helper()
	return NewHeap(opts...)
}

func registerPair(t *testing.T, h *Heap) (node, leaf TypeID) {
	t.Helper()
	node = h.MustRegisterType(TypeDesc{Name: "node", NumFields: 3, PtrFields: []int{0, 1}})
	leaf = h.MustRegisterType(TypeDesc{Name: "leaf", NumFields: 1})
	return node, leaf
}

func TestHeaderPacking(t *testing.T) {
	tests := []struct {
		name  string
		size  int
		typ   TypeID
		freed bool
		gen   uint32
	}{
		{name: "zeros", size: 0, typ: 0, freed: false, gen: 0},
		{name: "typical", size: 6, typ: 3, freed: false, gen: 17},
		{name: "freed", size: 64, typ: 9, freed: true, gen: 1},
		{name: "max size", size: hdrSizeMask, typ: 0, freed: false, gen: 0},
		{name: "max type", size: 4, typ: hdrTypeMask, freed: true, gen: 5},
		{name: "max gen", size: 4, typ: 1, freed: false, gen: hdrGenMask},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			h := packHeader(tt.size, tt.typ, tt.freed, tt.gen)
			if h&^ValueMask != 0 {
				t.Errorf("header %#x uses reserved descriptor bits", h)
			}
			if got := headerSize(h); got != tt.size {
				t.Errorf("size = %d, want %d", got, tt.size)
			}
			if got := headerType(h); got != tt.typ {
				t.Errorf("type = %d, want %d", got, tt.typ)
			}
			if got := headerFreed(h); got != tt.freed {
				t.Errorf("freed = %v, want %v", got, tt.freed)
			}
			if got := headerGen(h); got != tt.gen {
				t.Errorf("gen = %d, want %d", got, tt.gen)
			}
		})
	}
}

func TestPoisonAvoidsDescriptorBits(t *testing.T) {
	if Poison&^ValueMask != 0 {
		t.Fatalf("Poison %#x collides with reserved descriptor bits", Poison)
	}
}

func TestTypeDescValidate(t *testing.T) {
	tests := []struct {
		name    string
		desc    TypeDesc
		wantErr bool
	}{
		{name: "no fields", desc: TypeDesc{Name: "empty"}},
		{name: "scalar only", desc: TypeDesc{Name: "s", NumFields: 2}},
		{name: "pointers", desc: TypeDesc{Name: "p", NumFields: 3, PtrFields: []int{0, 2}}},
		{name: "max fields", desc: TypeDesc{Name: "m", NumFields: MaxFields}},
		{name: "negative fields", desc: TypeDesc{Name: "n", NumFields: -1}, wantErr: true},
		{name: "too many fields", desc: TypeDesc{Name: "t", NumFields: MaxFields + 1}, wantErr: true},
		{name: "ptr out of range", desc: TypeDesc{Name: "o", NumFields: 2, PtrFields: []int{2}}, wantErr: true},
		{name: "ptr duplicate", desc: TypeDesc{Name: "d", NumFields: 3, PtrFields: []int{1, 1}}, wantErr: true},
		{name: "ptr unordered", desc: TypeDesc{Name: "u", NumFields: 3, PtrFields: []int{2, 0}}, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.desc.validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("validate() error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestRegisterAndLookupType(t *testing.T) {
	h := testHeap(t)
	node, leaf := registerPair(t, h)
	if node == leaf {
		t.Fatalf("distinct types got the same id %d", node)
	}

	d, err := h.Type(node)
	if err != nil {
		t.Fatalf("Type(node): %v", err)
	}
	if d.Name != "node" || d.NumFields != 3 || len(d.PtrFields) != 2 {
		t.Errorf("unexpected descriptor %+v", d)
	}

	if _, err := h.Type(TypeID(99)); err == nil {
		t.Error("lookup of unregistered type succeeded")
	}
}

func TestRegisterTypeCopiesPtrFields(t *testing.T) {
	h := testHeap(t)
	fields := []int{0, 1}
	id := h.MustRegisterType(TypeDesc{Name: "x", NumFields: 2, PtrFields: fields})
	fields[0] = 1 // caller mutates its slice after registration

	d, err := h.Type(id)
	if err != nil {
		t.Fatalf("Type: %v", err)
	}
	if d.PtrFields[0] != 0 {
		t.Error("registered descriptor aliases the caller's slice")
	}
}

func TestCellLoadStoreCAS(t *testing.T) {
	h := testHeap(t)
	_, leaf := registerPair(t, h)
	r := h.MustAlloc(leaf)
	a := h.FieldAddr(r, 0)

	if got := h.Load(a); got != 0 {
		t.Fatalf("fresh field = %#x, want 0", got)
	}
	h.Store(a, 42)
	if got := h.Load(a); got != 42 {
		t.Fatalf("after Store, field = %d, want 42", got)
	}
	if h.CAS(a, 41, 43) {
		t.Fatal("CAS succeeded with wrong expected value")
	}
	if !h.CAS(a, 42, 43) {
		t.Fatal("CAS failed with right expected value")
	}
	if got := h.Load(a); got != 43 {
		t.Fatalf("after CAS, field = %d, want 43", got)
	}
}

func TestAddressHelpers(t *testing.T) {
	h := testHeap(t)
	node, _ := registerPair(t, h)
	r := h.MustAlloc(node)

	if got := h.RCAddr(r); got != r+1 {
		t.Errorf("RCAddr = %d, want %d", got, r+1)
	}
	if got := h.AuxAddr(r); got != r+2 {
		t.Errorf("AuxAddr = %d, want %d", got, r+2)
	}
	if got := h.FieldAddr(r, 2); got != r+HeaderWords+2 {
		t.Errorf("FieldAddr(2) = %d, want %d", got, r+HeaderWords+2)
	}
}

func TestNullAddressIsNeverAllocated(t *testing.T) {
	h := testHeap(t)
	_, leaf := registerPair(t, h)
	for i := 0; i < 100; i++ {
		r := h.MustAlloc(leaf)
		if r == 0 {
			t.Fatal("Alloc returned the null reference")
		}
		if r < firstAddr {
			t.Fatalf("Alloc returned reserved address %d", r)
		}
	}
}

func TestOutOfMemory(t *testing.T) {
	h := NewHeap(WithMaxWords(segWords)) // single segment
	big := h.MustRegisterType(TypeDesc{Name: "big", NumFields: MaxFields})

	var allocated []Ref
	for {
		r, err := h.Alloc(big)
		if err != nil {
			if !errors.Is(err, ErrOutOfMemory) {
				t.Fatalf("Alloc: unexpected error %v", err)
			}
			break
		}
		allocated = append(allocated, r)
	}
	if len(allocated) == 0 {
		t.Fatal("no allocations succeeded before exhaustion")
	}
	if got := h.Stats().AllocFailures; got == 0 {
		t.Error("AllocFailures not counted")
	}

	// Freeing makes room again.
	if err := h.Free(allocated[0]); err != nil {
		t.Fatalf("Free: %v", err)
	}
	if _, err := h.Alloc(big); err != nil {
		t.Fatalf("Alloc after Free: %v", err)
	}
}

func TestAllocUnknownType(t *testing.T) {
	h := testHeap(t)
	if _, err := h.Alloc(TypeID(7)); err == nil {
		t.Error("Alloc of unregistered type succeeded")
	}
}

func TestInArena(t *testing.T) {
	h := testHeap(t)
	_, leaf := registerPair(t, h)
	if h.InArena(0) {
		t.Error("null address reported in arena")
	}
	r := h.MustAlloc(leaf)
	if !h.InArena(r) {
		t.Error("allocated object reported outside arena")
	}
	if h.InArena(Addr(h.next.Load() + 100)) {
		t.Error("uncarved address reported in arena")
	}
}

func TestScanPoisonCleanHeap(t *testing.T) {
	h := testHeap(t)
	node, _ := registerPair(t, h)
	a := h.MustAlloc(node)
	h.MustAlloc(node)
	if err := h.Free(a); err != nil {
		t.Fatal(err)
	}
	if ds := h.ScanPoison(); len(ds) != 0 {
		t.Errorf("ScanPoison = %v, want none", ds)
	}
}

func TestScanPoisonDetectsDamage(t *testing.T) {
	tests := []struct {
		name   string
		damage func(h *Heap, a Ref)
		offset int
	}{
		{
			name:   "rc cell",
			damage: func(h *Heap, a Ref) { h.Store(h.RCAddr(a), Poison+1) },
			offset: 1,
		},
		{
			name:   "payload cell",
			damage: func(h *Heap, a Ref) { h.Store(h.FieldAddr(a, 1), 0) },
			offset: HeaderWords + 1,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			h := testHeap(t)
			node, _ := registerPair(t, h)
			a := h.MustAlloc(node)
			if err := h.Free(a); err != nil {
				t.Fatal(err)
			}
			tt.damage(h, a)
			ds := h.ScanPoison()
			if len(ds) != 1 || ds[0] != (Damage{Ref: a, Offset: tt.offset}) {
				t.Errorf("ScanPoison = %+v, want one damage at %#x offset %d", ds, a, tt.offset)
			}
			// The aux cell carries the free-list link and is exempt.
			h.Store(h.AuxAddr(a), 12345)
			if ds := h.ScanPoison(); len(ds) != 1 {
				t.Errorf("aux write changed the scan: %+v", ds)
			}
		})
	}
}

// TestWildAddressIsCountedCorruption: an access through a stomped link —
// past the segment table, or into a segment never mapped — is counted as
// corruption and absorbed by the sink cell instead of faulting, and never
// lands on a real cell.
func TestWildAddressIsCountedCorruption(t *testing.T) {
	h := testHeap(t)
	node, _ := registerPair(t, h)
	r := h.MustAlloc(node)
	for i, wild := range []Addr{Addr(Poison & 0xFFFF_FFFF), Addr(5 * segWords)} {
		h.Store(wild, 7)
		if !h.CAS(wild, h.Load(wild), 8) {
			t.Errorf("%#x: CAS on the sink failed", wild)
		}
		if got := h.Stats().Corruptions; got != int64(3*(i+1)) {
			t.Errorf("%#x: Corruptions = %d, want %d", wild, got, 3*(i+1))
		}
	}
	if got := h.Load(h.RCAddr(r)); got != 1 {
		t.Errorf("live object's count = %d after wild writes, want 1", got)
	}
}
