package lifecycle

import (
	"time"

	"lfrc/internal/mem"
)

// Census is a point-in-time population report over the heap, bucketed by
// reference count, plus age distribution of the ledger's tracked objects.
// It is the leak-triage companion to the auditor: the auditor names
// individual stuck objects, the census shows whether the population as a
// whole is skewing old and high-rc (a systemic leak) or healthy.
type Census struct {
	// Epoch is the reclamation epoch at capture time.
	Epoch uint64 `json:"epoch"`

	// TS is the capture time, nanoseconds since the Unix epoch.
	TS int64 `json:"ts"`

	// LiveObjects and FreedSlots count every slot ever carved.
	LiveObjects int64 `json:"live_objects"`
	FreedSlots  int64 `json:"freed_slots"`

	// ByRC buckets live objects by current reference count. Keys:
	// "1", "2", "3-4", "5-8", "9+", and "invalid" for live objects whose
	// rc cell holds the poison pattern or zero (corruption signatures).
	ByRC map[string]int64 `json:"by_rc"`

	// Tracked counts ledgered live objects; TrackedFreed those whose
	// incarnation has been freed but not yet retired by the auditor.
	Tracked      int64 `json:"tracked"`
	TrackedFreed int64 `json:"tracked_freed"`

	// ByAge buckets tracked live objects by time since allocation. Keys:
	// "lt_1ms", "1ms_10ms", "10ms_100ms", "100ms_1s", "ge_1s".
	ByAge map[string]int64 `json:"by_age,omitempty"`

	// OldestNS is the age of the oldest tracked live object.
	OldestNS int64 `json:"oldest_ns,omitempty"`
}

// rcBucket names the census bucket for a live object's rc cell value.
func rcBucket(rc uint64) string {
	switch {
	case rc == 0 || rc >= mem.Poison:
		return "invalid"
	case rc == 1:
		return "1"
	case rc == 2:
		return "2"
	case rc <= 4:
		return "3-4"
	case rc <= 8:
		return "5-8"
	default:
		return "9+"
	}
}

// ageBucket names the census bucket for a tracked object's age.
func ageBucket(d time.Duration) string {
	switch {
	case d < time.Millisecond:
		return "lt_1ms"
	case d < 10*time.Millisecond:
		return "1ms_10ms"
	case d < 100*time.Millisecond:
		return "10ms_100ms"
	case d < time.Second:
		return "100ms_1s"
	default:
		return "ge_1s"
	}
}

// TakeCensus walks the heap and snapshots the ledger (led may be nil). The
// walk reads live cells without stopping the world, so counts are a
// consistent-enough snapshot for triage, not an exact quiescent census.
func TakeCensus(h *mem.Heap, led *Ledger) Census {
	now := time.Now().UnixNano()
	c := Census{
		Epoch: h.Epoch(),
		TS:    now,
		ByRC:  make(map[string]int64),
	}
	h.WalkBlocks(func(b mem.Block) bool {
		if b.Freed {
			c.FreedSlots++
			return true
		}
		c.LiveObjects++
		c.ByRC[rcBucket(h.Load(h.RCAddr(b.Ref)))]++
		return true
	})
	if led == nil {
		return c
	}
	c.ByAge = make(map[string]int64)
	for _, st := range led.Live() {
		if st.Timeline.Freed {
			c.TrackedFreed++
			continue
		}
		c.Tracked++
		age := now - st.Timeline.Start
		c.ByAge[ageBucket(time.Duration(age))]++
		if age > c.OldestNS {
			c.OldestNS = age
		}
	}
	return c
}
