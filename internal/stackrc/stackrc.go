// Package stackrc implements a Treiber stack (R. K. Treiber, 1986)
// transformed to be GC-independent with the LFRC methodology.
//
// The Treiber stack is the canonical victim of the ABA problem the LFRC
// paper describes in §1: with naive CAS-based reclamation, a pop can CAS the
// top pointer from a node that was freed and recycled, corrupting the stack.
// Under LFRC the pop's Load holds a counted reference to the old top, so the
// node cannot be recycled while any pop still names it, and the CAS is safe.
// The algorithm itself needs only LFRCCAS; DCAS appears solely inside
// LFRCLoad.
package stackrc

import (
	"fmt"

	"lfrc/internal/core"
	"lfrc/internal/fault"
	"lfrc/internal/mem"
)

// Value is the payload type. Values must be at most mem.ValueMask.
type Value = uint64

// Node field indices.
const (
	fNext = 0 // next node down (pointer)
	fV    = 1 // payload (scalar)
)

// Types holds the heap type ids the stack uses; register once per heap.
type Types struct {
	Node   mem.TypeID
	Anchor mem.TypeID
}

// RegisterTypes registers the stack's node and anchor types on h.
func RegisterTypes(h *mem.Heap) (Types, error) {
	node, err := h.RegisterType(mem.TypeDesc{
		Name:      "stackrc.Node",
		NumFields: 2,
		PtrFields: []int{fNext},
	})
	if err != nil {
		return Types{}, fmt.Errorf("stackrc: register node: %w", err)
	}
	anchor, err := h.RegisterType(mem.TypeDesc{
		Name:      "stackrc.Anchor",
		NumFields: 1,
		PtrFields: []int{0},
	})
	if err != nil {
		return Types{}, fmt.Errorf("stackrc: register anchor: %w", err)
	}
	return Types{Node: node, Anchor: anchor}, nil
}

// MustRegisterTypes is RegisterTypes for static setup; it panics on error.
func MustRegisterTypes(h *mem.Heap) Types {
	ts, err := RegisterTypes(h)
	if err != nil {
		panic(err)
	}
	return ts
}

// Stack is a GC-independent Treiber stack.
type Stack struct {
	rc *core.RC
	h  *mem.Heap
	ts Types
	fj *fault.Injector // rc's fault injector, cached; nil means disabled

	anchor mem.Ref
	topA   mem.Addr
	closed bool
}

// New builds an empty stack.
func New(rc *core.RC, ts Types) (*Stack, error) {
	s := &Stack{rc: rc, h: rc.Heap(), ts: ts, fj: rc.Fault()}
	anchor, err := rc.NewObject(ts.Anchor)
	if err != nil {
		return nil, fmt.Errorf("stackrc: allocate anchor: %w", err)
	}
	s.anchor = anchor
	s.topA = s.h.FieldAddr(anchor, 0)
	return s, nil
}

// Anchor returns the stack's anchor object, suitable for registering as a
// census root (see census.Collect). It is 0 after Close.
func (s *Stack) Anchor() mem.Ref { return s.anchor }

func (s *Stack) nextA(n mem.Ref) mem.Addr { return s.h.FieldAddr(n, fNext) }
func (s *Stack) vA(n mem.Ref) mem.Addr    { return s.h.FieldAddr(n, fV) }

// Push places v on top of the stack.
func (s *Stack) Push(v Value) error {
	if v > mem.ValueMask {
		return fmt.Errorf("stackrc: %w: %#x", mem.ErrValueRange, v)
	}
	n, err := s.rc.NewObject(s.ts.Node)
	if err != nil {
		return fmt.Errorf("stackrc: %w", err)
	}
	s.rc.WordStore(s.vA(n), v)

	var top mem.Ref
	for {
		s.rc.Load(s.topA, &top)
		s.rc.Store(s.nextA(n), top)
		if s.fj.Inject(fault.StackPush) {
			continue
		}
		if s.rc.CAS(s.topA, top, n) {
			s.rc.Destroy(top, n)
			return nil
		}
	}
}

// Pop removes and returns the top value; ok is false when the stack is
// observed empty.
func (s *Stack) Pop() (v Value, ok bool) {
	var top, next mem.Ref
	for {
		s.rc.Load(s.topA, &top)
		if top == 0 {
			s.rc.Destroy(next)
			return 0, false
		}
		s.rc.Load(s.nextA(top), &next)
		if s.fj.Inject(fault.StackPop) {
			continue
		}
		if s.rc.CAS(s.topA, top, next) {
			value := s.rc.WordLoad(s.vA(top))
			s.rc.Destroy(top, next)
			return value, true
		}
	}
}

// Close drains the stack and releases the anchor. Must not run concurrently
// with other operations.
func (s *Stack) Close() {
	if s.closed {
		return
	}
	s.closed = true
	for {
		if _, ok := s.Pop(); !ok {
			break
		}
	}
	s.rc.Store(s.topA, 0)
	s.rc.Destroy(s.anchor)
	s.anchor = 0
}
