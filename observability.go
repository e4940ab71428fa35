package lfrc

import (
	"time"

	"lfrc/internal/lifecycle"
)

// ObservabilityOptions configures the whole observability stack — flight
// recorder, contention observatory, lifecycle ledger, invariant auditor —
// in one struct option, mirroring WithTimeline/WithWatchdog. The zero value
// changes nothing; each field only tightens the configuration, so multiple
// WithObservability options compose: later options add to earlier ones
// rather than resetting them.
type ObservabilityOptions struct {
	// Observer installs the flight recorder at its default sampling (1 in
	// 64 operations): a sampled, allocation-free, lock-free trace of LFRC
	// and allocator operations plus latency and retry digests, read back
	// with System.Trace. Any other field being set implies it.
	Observer bool

	// SampleEvery sets the flight recorder's op-sampling interval to
	// 1-in-n. 1 records every operation; 0 keeps the default; a negative
	// value installs the recorder with recording disabled, which isolates
	// its fixed hot-path cost (the "disabled" mode of experiment O1).
	SampleEvery int

	// Contention enables the DCAS contention observatory: every LFRC and
	// deque retry loop reports its failed DCAS/CAS attempts per memory
	// cell — blame split across the comparands by re-reading them — and
	// the flight recorder's aggregation tap charges the retried fraction
	// of each sampled operation's latency to its cell as wasted work.
	// Read it back with System.ContentionReport, the human report on
	// /debug/lfrc/contention, Prometheus lfrc_contention_* series, or the
	// pprof profile on /debug/lfrc/contention.pb.gz. Uncontended
	// operations record nothing, so the overhead concentrates on paths
	// that are already losing races.
	Contention bool

	// LifecycleEvery enables the sampled per-object lifecycle ledger
	// tracking one in every n allocations from birth: every subsequent
	// event touching a selected object — including operations op sampling
	// skips — is appended to its timeline with goroutine attribution.
	// Read timelines back with System.Timeline, population reports with
	// System.Population, and export with System.WriteChromeTrace. 1
	// tracks every object; 0 leaves the ledger as previously configured
	// (off by default); a negative value installs it with object sampling
	// off (the "disabled" mode of experiment O2, costing only the
	// recorder's nil sink check).
	LifecycleEvery int

	// AuditEvery starts the online invariant auditor sweeping the
	// lifecycle ledger at this interval: it cross-checks tracked objects
	// against the heap and flags leak candidates, use-after-free, double
	// frees, and stuck zombies (see System.Violations), capturing a
	// flight-recorder postmortem per new finding. It implies a
	// default-sampling ledger when none was requested; 0 leaves the
	// auditor off; a negative interval means the 100ms default. Call
	// System.Close to stop the auditor.
	AuditEvery time.Duration
}

// WithObservability applies an ObservabilityOptions bundle: the one way to
// arm the diagnosis layers.
func WithObservability(o ObservabilityOptions) Option {
	return optionFunc(func(c *config) {
		if o.Observer || o.SampleEvery != 0 || o.Contention || o.LifecycleEvery != 0 || o.AuditEvery != 0 {
			c.observer = true
		}
		if o.SampleEvery > 0 {
			c.sampleEvery = o.SampleEvery
		} else if o.SampleEvery < 0 {
			c.sampleEvery = 0 // installed, recording off
		}
		if o.Contention {
			c.contention = true
		}
		if o.LifecycleEvery > 0 {
			c.lifecycleEvery = o.LifecycleEvery + 1 // internal encoding: 0 = off, k+1 = every k
		} else if o.LifecycleEvery < 0 {
			c.lifecycleEvery = 1 // installed, object sampling off
		}
		if o.AuditEvery != 0 {
			if c.lifecycleEvery == 0 {
				c.lifecycleEvery = lifecycle.DefaultSampleEvery + 1
			}
			iv := o.AuditEvery
			if iv < 0 {
				iv = 100 * time.Millisecond
			}
			c.auditEvery = iv
		}
	})
}
