package policy

import (
	"encoding/json"
	"fmt"

	"iatsim/internal/cache"
)

// Policy snapshot/restore: every policy can serialise its internal state
// (comparison baselines, hysteresis streaks, health counters) so a
// checkpointed daemon resumes deciding exactly where it left off. The
// encodings are JSON over structs of exported fields — field order is
// the struct order and maps encode with sorted keys, so identical state
// always yields identical bytes (the determinism regime the
// checkpoint envelope's byte-compare guarantee rests on).

// iatState is IAT's serialised form.
type iatState struct {
	Cur     Sample `json:"cur"`
	HaveCur bool   `json:"have_cur"`
	Prev    Sample `json:"prev"`
	Have    bool   `json:"have"`
	H       Health `json:"health"`
}

// Snapshot implements Policy.
func (p *IAT) Snapshot() ([]byte, error) {
	return json.Marshal(iatState{Cur: p.cur, HaveCur: p.haveCur, Prev: p.prev, Have: p.have, H: p.h})
}

// Restore implements Policy.
func (p *IAT) Restore(data []byte) error {
	var st iatState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("policy: restore iat: %w", err)
	}
	p.cur, p.haveCur, p.prev, p.have, p.h = st.Cur, st.HaveCur, st.Prev, st.Have, st.H
	return nil
}

// staticState is Static's serialised form. Ways is configuration, but it
// is carried so a restore into a differently-configured instance is
// rejected instead of silently changing the target.
type staticState struct {
	Ways int    `json:"ways"`
	Cur  Sample `json:"cur"`
	H    Health `json:"health"`
}

// Snapshot implements Policy.
func (p *Static) Snapshot() ([]byte, error) {
	return json.Marshal(staticState{Ways: p.ways, Cur: p.cur, H: p.h})
}

// Restore implements Policy.
func (p *Static) Restore(data []byte) error {
	var st staticState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("policy: restore static: %w", err)
	}
	if st.Ways != p.ways {
		return fmt.Errorf("policy: restore static: snapshot is for static:%d, this instance is static:%d", st.Ways, p.ways)
	}
	p.cur, p.h = st.Cur, st.H
	return nil
}

// iocaState is IOCAStyle's serialised form.
type iocaState struct {
	Cur  Sample `json:"cur"`
	Hot  int    `json:"hot"`
	Cold int    `json:"cold"`
	H    Health `json:"health"`
}

// Snapshot implements Policy.
func (p *IOCAStyle) Snapshot() ([]byte, error) {
	return json.Marshal(iocaState{Cur: p.cur, Hot: p.hot, Cold: p.cold, H: p.h})
}

// Restore implements Policy.
func (p *IOCAStyle) Restore(data []byte) error {
	var st iocaState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("policy: restore ioca: %w", err)
	}
	p.cur, p.hot, p.cold, p.h = st.Cur, st.Hot, st.Cold, st.H
	return nil
}

// greedyState is Greedy's serialised form (memoryless beyond the last
// sample and the health counters).
type greedyState struct {
	Cur Sample `json:"cur"`
	H   Health `json:"health"`
}

// Snapshot implements Policy.
func (p *Greedy) Snapshot() ([]byte, error) {
	return json.Marshal(greedyState{Cur: p.cur, H: p.h})
}

// Restore implements Policy.
func (p *Greedy) Restore(data []byte) error {
	var st greedyState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("policy: restore greedy: %w", err)
	}
	p.cur, p.h = st.Cur, st.H
	return nil
}

// coreOnlyState is CoreOnly's serialised form: the packing order, the
// previous miss rates and the last DDIO mask seen. Isolate is
// configuration, carried so a Core-only snapshot is never restored into
// an I/O-iso instance (or the reverse). The prev-miss map encodes with
// sorted keys, so the bytes stay deterministic.
type coreOnlyState struct {
	Isolate  bool            `json:"isolate"`
	Cur      Sample          `json:"cur"`
	Order    []int           `json:"order"`
	PrevMiss map[int]float64 `json:"prev_miss"`
	LastDDIO cache.WayMask   `json:"last_ddio"`
	H        Health          `json:"health"`
}

// Snapshot implements Policy.
func (p *CoreOnly) Snapshot() ([]byte, error) {
	return json.Marshal(coreOnlyState{Isolate: p.isolate, Cur: p.cur, Order: p.order,
		PrevMiss: p.prevMiss, LastDDIO: p.lastDDIO, H: p.h})
}

// Restore implements Policy.
func (p *CoreOnly) Restore(data []byte) error {
	var st coreOnlyState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("policy: restore %s: %w", p.Name(), err)
	}
	if st.Isolate != p.isolate {
		return fmt.Errorf("policy: restore %s: snapshot is for another comparator", p.Name())
	}
	p.cur, p.order, p.prevMiss, p.lastDDIO, p.h = st.Cur, st.Order, st.PrevMiss, st.LastDDIO, st.H
	return nil
}
