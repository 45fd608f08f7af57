package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"iatsim/internal/sim"
)

// span is one traced interval. Agg marks a per-epoch aggregate: its
// duration is the sum of many short intervals (e.g. every microtick's
// worker call in one Platform.Step), laid from the parent's start.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer was created
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the span list, -1 for a root
	Agg    bool   `json:"aggregate,omitempty"`
}

// tracer keeps every span in memory; write saves them when the run ends.
// A nil *tracer records nothing, so untraced code paths pass nil.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its index (-1 on a nil tracer).
func (t *tracer) add(name string, parent int, start time.Time, d time.Duration) int {
	if t == nil {
		return -1
	}
	s := int64(start.Sub(t.t0))
	t.spans = append(t.spans, span{Name: name, Start: s, End: s + int64(d), Parent: parent})
	return len(t.spans) - 1
}

// addAgg records a per-epoch aggregate of total duration d under parent.
func (t *tracer) addAgg(name string, parent int, start time.Time, d time.Duration) {
	if i := t.add(name, parent, start, d); i >= 0 {
		t.spans[i].Agg = true
	}
}

// begin opens a span whose end is set by finish; use it for spans that
// are parents of others.
func (t *tracer) begin(name string, parent int) int {
	return t.add(name, parent, time.Now(), 0)
}

func (t *tracer) finish(i int) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].End = int64(time.Since(t.t0))
}

// write saves the spans as JSON to dir/name.
func (t *tracer) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), data, 0o644)
}

// timedWorker wraps a tenant worker and adds each Run's host time to acc.
// It forwards ctx untouched, so the simulated behaviour is the wrapped
// worker's; the traced-vs-untraced digest comparison checks exactly that.
type timedWorker struct {
	w   sim.Worker
	acc *time.Duration
}

func (t timedWorker) Run(ctx *sim.Ctx) {
	start := time.Now()
	t.w.Run(ctx)
	*t.acc += time.Since(start)
}

// wrapWorkers swaps every worker of every tenant on p for a timedWorker
// whose accumulator is chosen by classify(tenant name).
func wrapWorkers(p *sim.Platform, classify func(tenant string) *time.Duration) {
	for _, t := range p.Tenants() {
		acc := classify(t.Name)
		for k, w := range t.Workers {
			t.Workers[k] = timedWorker{w: w, acc: acc}
		}
	}
}
