// Package msqueue implements the Michael–Scott lock-free FIFO queue
// (PODC 1996) — reference [13] of the LFRC paper — transformed to be
// GC-independent with the LFRC methodology.
//
// The queue demonstrates two things about the methodology (paper §2.1):
// it applies beyond the worked deque example, and it needs nothing stronger
// than LFRCCAS from the *algorithm* — the only DCAS in the transformed queue
// hides inside LFRCLoad, which is where the paper argues DCAS is genuinely
// necessary. Garbage is naturally acyclic (nodes point only forward), so
// Step 3 required no changes at all.
//
// Known footprint property (finding F1 in EXPERIMENTS.md): each retired
// dummy's next pointer references the node retired after it, so a straggler
// holding a counted reference to one old dummy transitively pins every
// later-retired node until it lets go — reclamation is deferred, never lost.
// Snark avoids this by redirecting popped nodes' pointers to Dummy; doing
// the same here would let an enqueue with a stale tail link into a severed
// node (its CAS on next expects 0), so the MS queue keeps the original
// algorithm and documents the cost. See TestStragglerPinsRetiredChain.
package msqueue

import (
	"fmt"

	"lfrc/internal/core"
	"lfrc/internal/fault"
	"lfrc/internal/mem"
)

// Value is the payload type. Values must be at most mem.ValueMask.
type Value = uint64

// QNode field indices.
const (
	fNext = 0 // next node (pointer)
	fV    = 1 // payload (scalar)
)

// Anchor field indices.
const (
	aHead = 0
	aTail = 1
)

// Types holds the heap type ids the queue uses; register once per heap.
type Types struct {
	QNode  mem.TypeID
	Anchor mem.TypeID
}

// RegisterTypes registers the queue's node and anchor types on h.
func RegisterTypes(h *mem.Heap) (Types, error) {
	qnode, err := h.RegisterType(mem.TypeDesc{
		Name:      "msqueue.QNode",
		NumFields: 2,
		PtrFields: []int{fNext},
	})
	if err != nil {
		return Types{}, fmt.Errorf("msqueue: register QNode: %w", err)
	}
	anchor, err := h.RegisterType(mem.TypeDesc{
		Name:      "msqueue.Anchor",
		NumFields: 2,
		PtrFields: []int{aHead, aTail},
	})
	if err != nil {
		return Types{}, fmt.Errorf("msqueue: register anchor: %w", err)
	}
	return Types{QNode: qnode, Anchor: anchor}, nil
}

// MustRegisterTypes is RegisterTypes for static setup; it panics on error.
func MustRegisterTypes(h *mem.Heap) Types {
	ts, err := RegisterTypes(h)
	if err != nil {
		panic(err)
	}
	return ts
}

// Queue is a GC-independent Michael–Scott queue.
type Queue struct {
	rc *core.RC
	h  *mem.Heap
	ts Types
	fj *fault.Injector // rc's fault injector, cached; nil means disabled

	anchor mem.Ref
	headA  mem.Addr
	tailA  mem.Addr
	closed bool
}

// New builds an empty queue: Head and Tail point at a dummy node.
func New(rc *core.RC, ts Types) (*Queue, error) {
	q := &Queue{rc: rc, h: rc.Heap(), ts: ts, fj: rc.Fault()}
	anchor, err := rc.NewObject(ts.Anchor)
	if err != nil {
		return nil, fmt.Errorf("msqueue: allocate anchor: %w", err)
	}
	q.anchor = anchor
	q.headA = q.h.FieldAddr(anchor, aHead)
	q.tailA = q.h.FieldAddr(anchor, aTail)

	dummy, err := rc.NewObject(ts.QNode)
	if err != nil {
		rc.Destroy(anchor)
		return nil, fmt.Errorf("msqueue: allocate dummy: %w", err)
	}
	rc.StoreAlloc(q.headA, dummy)
	rc.Store(q.tailA, dummy)
	return q, nil
}

// Anchor returns the queue's anchor object, suitable for registering as a
// census root (see census.Collect). It is 0 after Close.
func (q *Queue) Anchor() mem.Ref { return q.anchor }

func (q *Queue) nextA(n mem.Ref) mem.Addr { return q.h.FieldAddr(n, fNext) }
func (q *Queue) vA(n mem.Ref) mem.Addr    { return q.h.FieldAddr(n, fV) }

// Enqueue appends v at the tail.
func (q *Queue) Enqueue(v Value) error {
	if v > mem.ValueMask {
		return fmt.Errorf("msqueue: %w: %#x", mem.ErrValueRange, v)
	}
	n, err := q.rc.NewObject(q.ts.QNode)
	if err != nil {
		return fmt.Errorf("msqueue: %w", err)
	}
	q.rc.WordStore(q.vA(n), v)

	var tail, next mem.Ref
	for {
		q.rc.Load(q.tailA, &tail)
		q.rc.Load(q.nextA(tail), &next)
		if next == 0 {
			// Injected failure lands between the tail loads and the
			// link CAS — the retry path of a lost enqueue race.
			if q.fj.Inject(fault.QueueEnqueue) {
				continue
			}
			if q.rc.CAS(q.nextA(tail), 0, n) {
				// Swing the tail; losing this race is fine —
				// some other thread already advanced it.
				q.rc.CAS(q.tailA, tail, n)
				q.rc.Destroy(tail, next, n)
				return nil
			}
		} else {
			// Tail is lagging: help it forward.
			q.rc.CAS(q.tailA, tail, next)
		}
	}
}

// Dequeue removes and returns the oldest value; ok is false when the queue
// is observed empty.
func (q *Queue) Dequeue() (v Value, ok bool) {
	var head, tail, next mem.Ref
	for {
		q.rc.Load(q.headA, &head)
		q.rc.Load(q.tailA, &tail)
		q.rc.Load(q.nextA(head), &next)
		if head == tail {
			if next == 0 {
				q.rc.Destroy(head, tail, next)
				return 0, false
			}
			q.rc.CAS(q.tailA, tail, next) // help the lagging tail
			continue
		}
		if next == 0 {
			// Transient: head moved under us; retry.
			continue
		}
		value := q.rc.WordLoad(q.vA(next))
		if q.fj.Inject(fault.QueueDequeue) {
			continue
		}
		if q.rc.CAS(q.headA, head, next) {
			q.rc.Destroy(head, tail, next)
			return value, true
		}
	}
}

// Close drains the queue, severs the anchor and releases it. Like the Snark
// destructor it must not run concurrently with other operations.
func (q *Queue) Close() {
	if q.closed {
		return
	}
	q.closed = true
	for {
		if _, ok := q.Dequeue(); !ok {
			break
		}
	}
	q.rc.Store(q.headA, 0)
	q.rc.Store(q.tailA, 0)
	q.rc.Destroy(q.anchor)
	q.anchor = 0
}
