package policy

import (
	"encoding/json"
	"fmt"

	"iatsim/internal/cache"
)

// Policy snapshot/restore: every policy can serialise its internal state
// (comparison baselines, hysteresis streaks, packing order) so a
// checkpointed daemon resumes deciding exactly where it left off. The
// encodings are JSON over structs of exported fields — field order is
// the struct order and maps encode with sorted keys, so identical state
// always yields identical bytes (the determinism regime the
// checkpoint envelope's byte-compare guarantee rests on).

// Absent reports whether a nested snapshot is missing or JSON null — both
// mean "no state was recorded".
func Absent(raw json.RawMessage) bool {
	return len(raw) == 0 || string(raw) == "null"
}

// iatState is IAT's serialised form: the comparison baseline.
type iatState struct {
	Prev Sample `json:"prev"`
	Have bool   `json:"have"`
}

// Snapshot implements Policy.
func (p *IAT) Snapshot() ([]byte, error) {
	return json.Marshal(iatState{Prev: p.prev, Have: p.have})
}

// Restore implements Policy.
func (p *IAT) Restore(data []byte) error {
	var st iatState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("policy: restore iat: %w", err)
	}
	p.prev, p.have = st.Prev, st.Have
	return nil
}

// staticState is Static's serialised form. Its only field is
// configuration, carried so a restore into a differently-configured
// instance is rejected instead of silently changing the target.
type staticState struct {
	Ways int `json:"ways"`
}

// Snapshot implements Policy.
func (p *Static) Snapshot() ([]byte, error) {
	return json.Marshal(staticState{Ways: p.ways})
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
	return nil
}

// iocaState is IOCAStyle's serialised form.
type iocaState struct {
	Hot  int `json:"hot"`
	Cold int `json:"cold"`
}

// Snapshot implements Policy.
func (p *IOCAStyle) Snapshot() ([]byte, error) {
	return json.Marshal(iocaState{Hot: p.hot, Cold: p.cold})
}

// Restore implements Policy.
func (p *IOCAStyle) Restore(data []byte) error {
	var st iocaState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("policy: restore ioca: %w", err)
	}
	p.hot, p.cold = st.Hot, st.Cold
	return nil
}

// Snapshot implements Policy: Greedy is memoryless, so its state is the
// empty object.
func (p *Greedy) Snapshot() ([]byte, error) { return []byte("{}"), nil }

// Restore implements Policy: any JSON object is accepted.
func (p *Greedy) Restore(data []byte) error {
	var st struct{}
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("policy: restore greedy: %w", err)
	}
	return nil
}

// coreOnlyState is CoreOnly's serialised form: the packing order, the
// previous miss rates and the last DDIO mask seen. Isolate is
// configuration, carried so a Core-only snapshot is never restored into
// an I/O-iso instance (or the reverse). The prev-miss map encodes with
// sorted keys, so the bytes stay deterministic.
type coreOnlyState struct {
	Isolate  bool            `json:"isolate"`
	Order    []int           `json:"order"`
	PrevMiss map[int]float64 `json:"prev_miss"`
	LastDDIO cache.WayMask   `json:"last_ddio"`
}

// Snapshot implements Policy.
func (p *CoreOnly) Snapshot() ([]byte, error) {
	return json.Marshal(coreOnlyState{Isolate: p.isolate, Order: p.order,
		PrevMiss: p.prevMiss, LastDDIO: p.lastDDIO})
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
	p.order, p.prevMiss, p.lastDDIO = st.Order, st.PrevMiss, st.LastDDIO
	return nil
}
