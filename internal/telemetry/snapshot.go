package telemetry

import (
	"encoding/json"
	"fmt"
	"sort"
)

// Kind marshals as its lowercase name ("counter"/"gauge"/"histogram").
func (k Kind) MarshalJSON() ([]byte, error) {
	if k > KindHistogram {
		return nil, fmt.Errorf("telemetry: unknown kind %d", k)
	}
	return json.Marshal(k.String())
}

// UnmarshalJSON accepts the names emitted by MarshalJSON.
func (k *Kind) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err != nil {
		return err
	}
	switch name {
	case "counter":
		*k = KindCounter
	case "gauge":
		*k = KindGauge
	case "histogram":
		*k = KindHistogram
	default:
		return fmt.Errorf("telemetry: unknown kind %q", name)
	}
	return nil
}

// HistogramData is the exported state of one histogram: Counts has
// len(Bounds)+1 entries, the last being the +Inf bucket.
type HistogramData struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
}

// Metric is one exported metric. Exactly one of Counter/Gauge/Hist is
// meaningful, selected by Kind.
type Metric struct {
	Subsystem string         `json:"subsystem"`
	Scope     string         `json:"scope,omitempty"`
	Name      string         `json:"name"`
	Kind      Kind           `json:"kind"`
	Counter   uint64         `json:"counter,omitempty"`
	Gauge     float64        `json:"gauge,omitempty"`
	Hist      *HistogramData `json:"histogram,omitempty"`
}

// Key returns the metric's registry key.
func (m Metric) Key() Key { return Key{m.Subsystem, m.Scope, m.Name} }

// scalar collapses a metric to one comparable number for diffing:
// counter value, gauge value, or histogram sample count.
func (m Metric) scalar() float64 {
	switch m.Kind {
	case KindCounter:
		return float64(m.Counter)
	case KindGauge:
		return m.Gauge
	case KindHistogram:
		if m.Hist != nil {
			return float64(m.Hist.Count)
		}
	}
	return 0
}

// Snapshot is an immutable capture of a registry at one sim time.
// Metrics are sorted by (subsystem, scope, name); Events are in
// emission order. Snapshots marshal to deterministic JSON: slices only,
// no maps.
type Snapshot struct {
	TimeNS        float64  `json:"time_ns"`
	Metrics       []Metric `json:"metrics"`
	Events        []Event  `json:"events"`
	EventsDropped uint64   `json:"events_dropped,omitempty"`
}

// Validate checks snapshot invariants: metrics sorted by key with no
// duplicates, histogram bucket counts consistent with their totals, and
// event sequence numbers strictly increasing. It is the schema check
// behind `iatstat -validate`.
func (s *Snapshot) Validate() error {
	if s == nil {
		return fmt.Errorf("telemetry: nil snapshot")
	}
	for i, m := range s.Metrics {
		if i > 0 {
			prev := s.Metrics[i-1].Key()
			if !keyLess(prev, m.Key()) {
				return fmt.Errorf("telemetry: metrics out of order at %d: %v !< %v", i, prev, m.Key())
			}
		}
		if m.Kind > KindHistogram {
			return fmt.Errorf("telemetry: metric %v has unknown kind %d", m.Key(), m.Kind)
		}
		if m.Kind == KindHistogram {
			h := m.Hist
			if h == nil {
				return fmt.Errorf("telemetry: histogram %v has no bucket data", m.Key())
			}
			if len(h.Counts) != len(h.Bounds)+1 {
				return fmt.Errorf("telemetry: histogram %v: %d bounds need %d counts, have %d",
					m.Key(), len(h.Bounds), len(h.Bounds)+1, len(h.Counts))
			}
			var total uint64
			for _, c := range h.Counts {
				total += c
			}
			if total != h.Count {
				return fmt.Errorf("telemetry: histogram %v: buckets sum to %d, count is %d",
					m.Key(), total, h.Count)
			}
			for i := 1; i < len(h.Bounds); i++ {
				if h.Bounds[i] <= h.Bounds[i-1] {
					return fmt.Errorf("telemetry: histogram %v: bounds not ascending at %d", m.Key(), i)
				}
			}
		}
	}
	var lastSeq uint64
	for _, ev := range s.Events {
		if ev.Seq <= lastSeq {
			return fmt.Errorf("telemetry: event seq %d not increasing (prev %d)", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
	}
	return nil
}

// Delta is one row of a snapshot comparison.
type Delta struct {
	Key    Key
	Kind   Kind
	Before float64 // counter/histogram-count as float64, gauge verbatim
	After  float64
}

// Diff returns per-metric deltas between two snapshots, sorted by key.
// Metrics present in only one snapshot contribute a zero on the missing
// side, so a diff against an empty (or nil) snapshot is the snapshot
// itself. Histograms compare by sample count.
func Diff(before, after *Snapshot) []Delta {
	vals := map[Key][2]float64{}
	kinds := map[Key]Kind{}
	if before != nil {
		for _, m := range before.Metrics {
			vals[m.Key()] = [2]float64{m.scalar(), 0}
			kinds[m.Key()] = m.Kind
		}
	}
	if after != nil {
		for _, m := range after.Metrics {
			v := vals[m.Key()]
			v[1] = m.scalar()
			vals[m.Key()] = v
			kinds[m.Key()] = m.Kind
		}
	}
	keys := make([]Key, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keyLess(keys[i], keys[j]) })
	out := make([]Delta, 0, len(keys))
	for _, k := range keys {
		v := vals[k]
		out = append(out, Delta{Key: k, Kind: kinds[k], Before: v[0], After: v[1]})
	}
	return out
}
