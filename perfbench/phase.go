package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// workload is one benchmark workload. pass runs one closed-loop unit of
// work — set-up, any untimed warm-up the caller controls, then the timed
// run — and records it in ph; tr is nil on untraced passes. layers turns
// the untraced and traced phases of a traced run into per-layer metrics.
type workload interface {
	pass(ph *phase, tr *tracer) error
	opsPerPass() int
	layers(un, tp *phase, m map[string]float64)
}

// phase accumulates the passes of one phase of a run (untraced, or
// traced). All timings are host time.
type phase struct {
	setup []float64 // s, one per constructor call timed
	run   []float64 // s, one per pass
	simMS float64   // simulated ms advanced by the timed runs
	step  []float64 // us of host time per simulated 1 ms epoch
	// passSteps holds each pass's step samples in simulation order.
	// Passes of one run simulate the same thing, so sample i of every
	// pass times the same work.
	passSteps [][]float64
	alloc     []float64 // MB allocated per pass (set-up and run)

	ops, failed int
	errs        []string
	digests     []string

	// samples and counts carry workload-specific per-layer data: samples
	// are distributions, counts are the last pass's simulated totals.
	samples map[string][]float64
	counts  map[string]float64

	heapPeakMB float64
}

func newPhase() *phase {
	return &phase{samples: map[string][]float64{}, counts: map[string]float64{}}
}

func (ph *phase) sample(name string, v float64) { ph.samples[name] = append(ph.samples[name], v) }

// runPhase runs passes of w until the next one would overrun budget (at
// least one). With heap set it samples the peak live heap meanwhile.
func runPhase(w workload, budget time.Duration, tr *tracer, heap bool) *phase {
	ph := newPhase()
	var stopHeap func() float64
	if heap {
		stopHeap = sampleHeap()
	}
	start := time.Now()
	for n := 1; ; n++ {
		n0 := len(ph.step)
		if err := safePass(w, ph, tr); err != nil {
			ph.errs = append(ph.errs, err.Error())
			ph.failed += w.opsPerPass()
			break
		}
		ph.passSteps = append(ph.passSteps, ph.step[n0:len(ph.step):len(ph.step)])
		elapsed := time.Since(start)
		if elapsed+elapsed/time.Duration(n) > budget {
			break
		}
	}
	if stopHeap != nil {
		ph.heapPeakMB = stopHeap()
	}
	return ph
}

// stepMedians returns, for each step position, the median of its host
// time over the passes. A host stall rarely hits the same position in
// most passes, so percentiles of these medians describe the simulator's
// own step-time distribution rather than the host's hiccups.
func (ph *phase) stepMedians() []float64 {
	if len(ph.passSteps) == 0 {
		return nil
	}
	n := len(ph.passSteps[0])
	for _, s := range ph.passSteps {
		n = min(n, len(s))
	}
	out := make([]float64, n)
	col := make([]float64, len(ph.passSteps))
	for i := range out {
		for k, s := range ph.passSteps {
			col[k] = s[i]
		}
		out[i] = median(col)
	}
	return out
}

// safePass runs one pass, counting its operations as attempted and
// reporting a panic as an error.
func safePass(w workload, ph *phase, tr *tracer) (err error) {
	ph.ops += w.opsPerPass()
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return w.pass(ph, tr)
}

// allocMark forces a collection, so every set-up starts from the same
// heap state, and returns the bytes allocated so far.
func allocMark() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.TotalAlloc
}

func allocSince(mark uint64) float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.TotalAlloc-mark) / 1e6
}

// sampleHeap polls the live heap marked by the latest collection every
// 2 ms until the returned stop function is called; stop waits for the
// poller to exit and returns the peak in MB.
func sampleHeap() (stop func() float64) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	var peak uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if s[0].Value.Kind() == metrics.KindUint64 && s[0].Value.Uint64() > peak {
				peak = s[0].Value.Uint64()
			}
			select {
			case <-done:
				return
			case <-tick.C:
			}
		}
	}()
	return func() float64 {
		close(done)
		wg.Wait()
		return float64(peak) / 1e6
	}
}
