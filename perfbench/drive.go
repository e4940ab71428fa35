package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// samplePeriod is how often the driver's otherwise idle goroutine reads the
// system's live words and reclamation backlog during a window.
const samplePeriod = 5 * time.Millisecond

// window is what one closed-loop measuring window observed.
type window struct {
	ops, failed int64
	elapsed     time.Duration
	kinds       [2]histogram
	liveMean    float64
	pendingMean float64
	firstErr    error // the first failed call's reason, if any
}

func (w *window) all() histogram {
	var h histogram
	h.merge(&w.kinds[0])
	h.merge(&w.kinds[1])
	return h
}

// firstErr returns the first failure reason among windows taken in order.
func firstErr(ws ...window) error {
	for _, w := range ws {
		if w.firstErr != nil {
			return w.firstErr
		}
	}
	return nil
}

func (w *window) opsPerSec() float64 { return float64(w.ops) / w.elapsed.Seconds() }

// add folds o into w, as if the two windows had run back to back.
func (w *window) add(o window) {
	total := w.elapsed + o.elapsed
	if total > 0 {
		w.liveMean = (w.liveMean*w.elapsed.Seconds() + o.liveMean*o.elapsed.Seconds()) / total.Seconds()
		w.pendingMean = (w.pendingMean*w.elapsed.Seconds() + o.pendingMean*o.elapsed.Seconds()) / total.Seconds()
	}
	w.ops += o.ops
	w.failed += o.failed
	if w.firstErr == nil {
		w.firstErr = o.firstErr
	}
	w.elapsed = total
	w.kinds[0].merge(&o.kinds[0])
	w.kinds[1].merge(&o.kinds[1])
}

// drive runs every worker of t as a closed loop for d: each worker times
// each call and makes the next one only after the previous returned. With
// a tracer, each call is also recorded as a span under parent, named by
// names[kind].
func (t *target) drive(d time.Duration, tr *tracer, parent uint64, names [2]string) window {
	var (
		stop  atomic.Bool
		start = make(chan struct{})
		wg    sync.WaitGroup
	)
	for _, w := range t.workers {
		w.ops, w.failed, w.firstErr = 0, 0, nil
		w.hist = [2]histogram{}
		ring := tr.ring()
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for !stop.Load() {
				t0 := now()
				kind, err := t.mix.call(w)
				t1 := now()
				w.hist[kind].observe(t1 - t0)
				w.ops++
				if err != nil {
					w.failed++
					if w.firstErr == nil {
						w.firstErr = err
					}
				}
				if ring != nil {
					ring.add(names[kind], parent, t0, t1)
				}
			}
		}()
	}

	var live, pending, samples int64
	done := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		tick := time.NewTicker(samplePeriod)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				l, p := t.sample()
				live += l
				pending += p
				samples++
			case <-done:
				return
			}
		}
	}()

	t0 := now()
	close(start)
	time.Sleep(d)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Duration(now() - t0)
	close(done)
	sampler.Wait()

	win := window{elapsed: elapsed}
	if samples == 0 {
		l, p := t.sample()
		live, pending, samples = l, p, 1
	}
	win.liveMean = float64(live) / float64(samples)
	win.pendingMean = float64(pending) / float64(samples)
	for _, w := range t.workers {
		win.ops += w.ops
		win.failed += w.failed
		if win.firstErr == nil {
			win.firstErr = w.firstErr
		}
		win.kinds[0].merge(&w.hist[0])
		win.kinds[1].merge(&w.hist[1])
	}
	return win
}
