package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
)

// digester hashes a workload's deterministic simulated outputs. Plain
// values (no pointers, no maps) go through %v — floats print in their
// shortest exact form — and values with their own deterministic JSON
// form (telemetry snapshots) through encoding/json.
type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) add(label string, v any) { fmt.Fprintf(d.h, "%s=%v\n", label, v) }

func (d *digester) addJSON(label string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("digest %s: %w", label, err)
	}
	fmt.Fprintf(d.h, "%s=%s\n", label, data)
	return nil
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)[:8]) }

// recordedDigests are the expected output digests, keyed
// "<workload>/<size>/<seed>": seed 0 and the held-out seed 7 at full
// size, and seed 0 at the self-test's tiny size. A run whose digest
// differs from its entry fails; a seed with no entry prints its digest
// so two commits can be compared by hand.
var recordedDigests = map[string]string{
	"leaky-dma/full/0":   "8511b1a3daee32a6",
	"leaky-dma/full/7":   "3d8f4f45ab3ef71c",
	"leaky-dma/tiny/0":   "90cdad247d72d0bb",
	"appmix/full/0":      "a0f840fc45450bea",
	"appmix/full/7":      "07acd79da3a92cd5",
	"appmix/tiny/0":      "f4b17707531aebc4",
	"fleet-storm/full/0": "bd8662e0ea6d6245",
	"fleet-storm/full/7": "839559a0c336f838",
	"fleet-storm/tiny/0": "a7e28f8cd8b6970b",
}

func digestKey(workload, size string, seed int64) string {
	return fmt.Sprintf("%s/%s/%d", workload, size, seed)
}
