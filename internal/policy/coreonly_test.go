package policy

import (
	"testing"

	"iatsim/internal/cache"
)

// machine is the synthetic LLC of the comparator tests: 11 ways, DDIO on
// the top two, and three groups — clos 1 performance-critical, clos 2 and
// 3 best-effort — packed two ways each from way 0. Decisions are applied
// the way the daemon applies them: a Layout replaces the masks verbatim.
type machine struct {
	ddio  cache.WayMask
	masks map[int]cache.WayMask
}

func newMachine() *machine {
	return &machine{
		ddio: cache.ContiguousMask(9, 2),
		masks: map[int]cache.WayMask{
			1: cache.ContiguousMask(0, 2),
			2: cache.ContiguousMask(2, 2),
			3: cache.ContiguousMask(4, 2),
		},
	}
}

// run hands p one sample per step, applies each decision, and returns
// each decision's Classify class. Every group misses 10 times per second
// unless missFor[clos] says otherwise, with 2*misses+100 references.
func (m *machine) run(p Policy, steps int, missFor map[int]func(step int) float64) []string {
	var classes []string
	for step := 0; step < steps; step++ {
		s := Sample{NumWays: 11, DDIOWays: m.ddio.Count(), DDIOMask: m.ddio, Limits: limits()}
		for clos := 1; clos <= 3; clos++ {
			miss := 10.0
			if f, ok := missFor[clos]; ok {
				miss = f(step)
			}
			refs := 2*miss + 100
			s.Groups = append(s.Groups, GroupView{
				CLOS: clos, BestEffort: clos != 1,
				Width: m.masks[clos].Count(), Mask: m.masks[clos],
				RefsPS: refs, MissPS: miss, MissRate: miss / refs,
			})
		}
		a := p.Decide(s)
		for clos, mask := range a.Layout {
			m.masks[clos] = mask
		}
		classes = append(classes, Classify(a, s.DDIOWays))
	}
	return classes
}

// rising is a miss stream that grows by per every step.
func rising(per float64) func(int) float64 {
	return func(step int) float64 { return per * float64(step+1) }
}

func TestCoreOnlyGrowsIntoIdleWays(t *testing.T) {
	m := newMachine()
	m.run(NewCoreOnly(), 8, map[int]func(int) float64{1: rising(100_000)})
	if got := m.masks[1].Count(); got <= 2 {
		t.Fatalf("demanding group stayed at %d ways", got)
	}
	// Core-only is I/O-unaware: the grower moves to the top of the
	// packing order and takes its ways from the idle region.
	if m.masks[1].Highest() < 6 {
		t.Fatalf("growth did not come from the idle top: %v", m.masks[1])
	}
}

func TestCoreOnlyStopsWhenFull(t *testing.T) {
	m := newMachine()
	m.run(NewCoreOnly(), 20, map[int]func(int) float64{1: rising(200_000)})
	total := 0
	for _, mask := range m.masks {
		total += mask.Count()
	}
	if total != 11 {
		t.Fatalf("total width %d, want the whole 11-way LLC and no more", total)
	}
	if !m.masks[1].Overlaps(m.ddio) {
		t.Fatalf("Core-only kept off the DDIO ways: %v vs %v", m.masks[1], m.ddio)
	}
}

func TestIOIsoExcludesDDIOWays(t *testing.T) {
	m := newMachine()
	m.run(NewIOIso(), 10, map[int]func(int) float64{1: rising(150_000)})
	if m.masks[1].Count() <= 2 {
		t.Fatalf("demanding group did not grow: %v", m.masks[1])
	}
	for clos, mask := range m.masks {
		if mask.Overlaps(m.ddio) {
			t.Fatalf("clos %d mask %v overlaps DDIO %v under I/O-iso", clos, mask, m.ddio)
		}
	}
}

func TestIOIsoStealsFromBestEffort(t *testing.T) {
	m := newMachine()
	// Fill the non-DDIO region: widths 3+3+3 = 9.
	m.masks[1] = cache.ContiguousMask(0, 3)
	m.masks[2] = cache.ContiguousMask(3, 3)
	m.masks[3] = cache.ContiguousMask(6, 3)
	m.run(NewIOIso(), 8, map[int]func(int) float64{1: rising(150_000)})
	if m.masks[1].Count() <= 3 {
		t.Fatalf("PC group did not grow: %v", m.masks[1])
	}
	if m.masks[2].Count() >= 3 && m.masks[3].Count() >= 3 {
		t.Fatal("no best-effort group was shrunk")
	}
}

func TestIOIsoTracksExternalDDIOChange(t *testing.T) {
	m := newMachine()
	// Fill the non-DDIO region, so the grown DDIO leaves too little room
	// and the re-pack has to overlap tenants.
	m.masks[1] = cache.ContiguousMask(0, 3)
	m.masks[2] = cache.ContiguousMask(3, 3)
	m.masks[3] = cache.ContiguousMask(6, 3)
	p := NewIOIso()
	m.run(p, 3, nil) // settle
	m.ddio = cache.ContiguousMask(7, 4)
	classes := m.run(p, 1, nil)
	want := map[int]cache.WayMask{
		1: cache.ContiguousMask(0, 3),
		2: cache.ContiguousMask(3, 3),
		3: cache.ContiguousMask(4, 3), // clamped below DDIO, overlapping clos 2
	}
	for clos, mask := range m.masks {
		if mask != want[clos] {
			t.Errorf("clos %d = %v after the DDIO change, want %v", clos, mask, want[clos])
		}
		if mask.Overlaps(m.ddio) {
			t.Errorf("clos %d mask %v overlaps the grown DDIO %v", clos, mask, m.ddio)
		}
	}
	if classes[0] != "shuffle" {
		t.Errorf("decision after the DDIO change is %q, want one re-pack (shuffle)", classes[0])
	}
}

func TestQuietSystemUnchanged(t *testing.T) {
	for _, p := range []Policy{NewCoreOnly(), NewIOIso()} {
		m := newMachine()
		before := map[int]cache.WayMask{}
		for clos, mask := range m.masks {
			before[clos] = mask
		}
		classes := m.run(p, 6, nil)
		for clos, mask := range m.masks {
			if before[clos] != mask {
				t.Fatalf("%s: quiet system reprogrammed clos %d: %v -> %v", p.Name(), clos, before[clos], mask)
			}
		}
		for _, c := range classes {
			if c == "grow-tenant" || c == "shrink-tenant" {
				t.Fatalf("%s: quiet system moved widths: %v", p.Name(), classes)
			}
		}
	}
}

// TestCoreOnlyRespectsDisableTenantAdjust: with tenant adjustment off the
// comparators still track their baselines but never hand over a layout.
func TestCoreOnlyRespectsDisableTenantAdjust(t *testing.T) {
	p := NewCoreOnly()
	for step := 0; step < 4; step++ {
		s := Sample{NumWays: 11, Limits: limits(), Groups: []GroupView{
			{CLOS: 1, Width: 2, MissPS: 1e6 * float64(step+1), MissRate: 0.5},
		}}
		s.Limits.DisableTenantAdjust = true
		if a := p.Decide(s); a.Layout != nil {
			t.Fatalf("step %d: layout %v under DisableTenantAdjust", step, a.Layout)
		}
	}
}
