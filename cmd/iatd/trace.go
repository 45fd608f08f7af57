package main

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"

	"iatsim/internal/core"
)

// traceWriter streams the daemon's iterations as the -trace CSV time
// series. The CLOS column set is fixed by the first record (ascending
// CLOS ids); the header is derived from it rather than tracked as
// separate state.
type traceWriter struct {
	csv  *csv.Writer
	clos []int // CLOS column order; nil until the header row is written
}

// newTraceWriter wraps w. Flush must be called to drain buffered rows.
func newTraceWriter(w io.Writer) *traceWriter {
	return &traceWriter{csv: csv.NewWriter(w)}
}

// header emits the column row, fixing the CLOS column order from the
// first record.
func (t *traceWriter) header(info core.IterationInfo) error {
	cols := []string{"time_s", "state", "stable", "action", "ddio_ways", "ddio_mask", "ddio_hit_ps", "ddio_miss_ps"}
	clos := make([]int, 0, len(info.Masks))
	for c := range info.Masks {
		clos = append(clos, c)
	}
	sort.Ints(clos)
	t.clos = clos
	for _, clos := range t.clos {
		cols = append(cols, fmt.Sprintf("clos%d_mask", clos))
	}
	return t.csv.Write(cols)
}

// Record appends one iteration.
func (t *traceWriter) Record(info core.IterationInfo) error {
	if t.clos == nil {
		if err := t.header(info); err != nil {
			return err
		}
	}
	row := []string{
		strconv.FormatFloat(info.NowNS/1e9, 'f', 3, 64),
		info.State.String(),
		strconv.FormatBool(info.Stable),
		info.Action,
		strconv.Itoa(info.DDIOWays),
		info.DDIOMask.String(),
		strconv.FormatFloat(info.DDIOHitPS, 'e', 3, 64),
		strconv.FormatFloat(info.DDIOMissPS, 'e', 3, 64),
	}
	for _, clos := range t.clos {
		row = append(row, info.Masks[clos].String())
	}
	return t.csv.Write(row)
}

// Flush drains buffered rows to the underlying writer.
func (t *traceWriter) Flush() error {
	t.csv.Flush()
	return t.csv.Error()
}
