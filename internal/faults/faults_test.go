package faults

import (
	"testing"

	"iatsim/internal/msr"
	"iatsim/internal/nic"
	"iatsim/internal/rdt"
	"iatsim/internal/sim"
	"iatsim/internal/telemetry"
)

// The injector must satisfy every layer's hook interface structurally.
var (
	_ msr.FaultHook     = (*Injector)(nil)
	_ nic.FaultInjector = (*Injector)(nil)
	_ sim.PollFaults    = (*Injector)(nil)
)

func TestProfileByName(t *testing.T) {
	for _, name := range ProfileNames() {
		p, err := ProfileByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Name != name {
			t.Errorf("%s: profile name %q", name, p.Name)
		}
	}
	if p, _ := ProfileByName("off"); p.Active() {
		t.Error("off profile is active")
	}
	if p, _ := ProfileByName("default"); !p.Active() {
		t.Error("default profile is inactive")
	}
	if _, err := ProfileByName("bogus"); err == nil {
		t.Error("unknown profile accepted")
	}
}

func TestProfileCustomSpec(t *testing.T) {
	p, err := ProfileByName("msr-reject=0.5, poll-skip=1")
	if err != nil {
		t.Fatal(err)
	}
	if p.Rates[MSRWriteReject] != 0.5 || p.Rates[PollSkip] != 1 {
		t.Fatalf("parsed rates %v", p.Rates)
	}
	if p.Rates[NICDrop] != 0 {
		t.Error("unlisted kind not zero")
	}
	// NaN fails every comparison, so it needs its own cases: alone it
	// once parsed as inactive, and beside another kind it fired on every
	// opportunity.
	for _, bad := range []string{"msr-reject=2", "nope=0.1", "msr-reject", "nic-drop=-0.1", "nic-drop=+Inf",
		"msr-reject=NaN", "msr-reject=NaN,nic-drop=0.1"} {
		if _, err := ProfileByName(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

func TestProfileScaled(t *testing.T) {
	p, _ := ProfileByName("default")
	twice := p.Scaled(2)
	if twice.Rates[MSRWriteReject] != 2*p.Rates[MSRWriteReject] {
		t.Error("scaling did not multiply rates")
	}
	if p.Scaled(1e9).Rates[PollSkip] != 1 {
		t.Error("scaled rate not clamped to 1")
	}
	if p.Scaled(0).Active() {
		t.Error("zero-scaled profile still active")
	}
}

// TestInjectorDeterministic: two injectors with the same seed produce the
// same decision stream; a different seed produces a different one.
func TestInjectorDeterministic(t *testing.T) {
	prof, _ := ProfileByName("heavy")
	draw := func(seed int64) []bool {
		in := NewInjector(prof, seed)
		out := make([]bool, 0, 400)
		for i := 0; i < 100; i++ {
			out = append(out, in.DropRxDesc(), in.StallTx(), in.SkipPoll(0))
			_, err := in.FilterWrite(0xC90, 0x7F, 0x0F)
			out = append(out, err != nil)
		}
		return out
	}
	a, b, c := draw(7), draw(7), draw(8)
	differs := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d", i)
		}
		if a[i] != c[i] {
			differs = true
		}
	}
	if !differs {
		t.Error("seeds 7 and 8 produced identical 400-draw streams")
	}
}

// TestInjectorRates: over many opportunities the empirical rate lands near
// the configured probability.
func TestInjectorRates(t *testing.T) {
	var prof Profile
	prof.Rates[NICDrop] = 0.25
	in := NewInjector(prof, 42)
	n := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		if in.DropRxDesc() {
			n++
		}
	}
	got := float64(n) / trials
	if got < 0.22 || got > 0.28 {
		t.Fatalf("empirical rate %.3f for configured 0.25", got)
	}
	if in.Count(NICDrop) != uint64(n) || in.Total() != uint64(n) {
		t.Fatalf("counts: Count=%d Total=%d want %d", in.Count(NICDrop), in.Total(), n)
	}
}

// TestFilterWriteSticky: a sticky write keeps exactly one old set bit that
// the new value tried to clear, and never touches writes growing the mask.
func TestFilterWriteSticky(t *testing.T) {
	var prof Profile
	prof.Rates[MSRSticky] = 1
	in := NewInjector(prof, 1)
	got, err := in.FilterWrite(0xC90, 0b1111000, 0b0000111)
	if err != nil {
		t.Fatal(err)
	}
	stuck := got &^ 0b0000111
	if got&0b0000111 != 0b0000111 {
		t.Fatalf("written bits lost: %b", got)
	}
	if stuck == 0 || stuck&(stuck-1) != 0 || stuck&0b1111000 == 0 {
		t.Fatalf("stuck bits %b: want exactly one bit of the old value", stuck)
	}
	// Superset write: nothing to stick, value passes through unchanged.
	if got, _ := in.FilterWrite(0xC90, 0b0011, 0b0111); got != 0b0111 {
		t.Fatalf("superset write altered: %b", got)
	}
}

// TestFilterReadKinds drives each counter fault kind at rate 1 and checks
// its corruption shape; mask-range registers must pass through untouched.
func TestFilterReadKinds(t *testing.T) {
	addr := msr.CoreCounterAddr(0, msr.EvCycles)
	one := func(k Kind) *Injector {
		var prof Profile
		prof.Rates[k] = 1
		return NewInjector(prof, 3)
	}
	if v := one(CounterZero).FilterRead(addr, 12345); v != 0 {
		t.Fatalf("zero glitch served %d", v)
	}
	max := (uint64(1) << rdt.CounterBits) - 1
	if v := one(CounterSaturate).FilterRead(addr, 12345); v != max {
		t.Fatalf("saturate glitch served %d", v)
	}
	// Stale: the second read re-serves the first read's value.
	st := one(CounterStale)
	first := st.FilterRead(addr, 100) // nothing latched yet: passes through
	if first != 100 {
		t.Fatalf("first read corrupted: %d", first)
	}
	if v := st.FilterRead(addr, 200); v != 100 {
		t.Fatalf("stale glitch served %d, want 100", v)
	}
	// Wrap: the read lands just below 2^CounterBits, and once the offset
	// is installed, deltas between consecutive reads stay exact.
	wr := NewInjector(Profile{Rates: func() (r [NumKinds]float64) { r[CounterWrap] = 1; return }()}, 5)
	v0 := wr.FilterRead(addr, 1000)
	if v0 < max-4096 {
		t.Fatalf("wrap onset read %d not near the boundary", v0)
	}
	wr.prof.Rates[CounterWrap] = 0 // stop re-triggering; keep the offset
	v1 := wr.FilterRead(addr, 6000)
	if d := (v1 - v0) & max; d != 5000 {
		t.Fatalf("post-wrap delta %d, want 5000", d)
	}
	// Mask registers are never corrupted.
	if v := one(CounterZero).FilterRead(msr.L3MaskAddr(2), 0x7F); v != 0x7F {
		t.Fatalf("mask register corrupted: %#x", v)
	}
}

// TestInjectorTelemetry: injections surface as faults// counters and
// SevDebug events.
func TestInjectorTelemetry(t *testing.T) {
	var prof Profile
	prof.Rates[PollSkip] = 1
	in := NewInjector(prof, 9)
	reg := telemetry.NewRegistry()
	now := 0.0
	in.AttachTelemetry(reg, func() float64 { return now })
	for i := 0; i < 3; i++ {
		now = float64(i) * 1e9
		in.SkipPoll(now)
	}
	if got := reg.Counter("faults", "", "poll-skip").Value(); got != 3 {
		t.Fatalf("telemetry counter %d, want 3", got)
	}
	evs := reg.Events(telemetry.SevDebug, "faults")
	if len(evs) != 3 || evs[2].Detail != "poll-skip" || evs[2].TimeNS != 2e9 {
		t.Fatalf("events %+v", evs)
	}
}

// TestCrashRollsLeaveDatapathUntouched: the crash/restart kinds draw
// from a separate control-plane stream, so arming them must not shift
// the MSR/NIC/poll fault schedule of an otherwise identical profile.
func TestCrashRollsLeaveDatapathUntouched(t *testing.T) {
	base, _ := ProfileByName("heavy")
	quiet := base
	quiet.Rates[HostCrash] = 0
	quiet.Rates[HostRestart] = 0
	a := NewInjector(base, 21)
	b := NewInjector(quiet, 21)
	for i := 0; i < 200; i++ {
		a.CrashHost()
		a.RestartHost()
		if a.DropRxDesc() != b.DropRxDesc() || a.SkipPoll(0) != b.SkipPoll(0) {
			t.Fatalf("crash rolls perturbed the datapath stream at draw %d", i)
		}
		if _, errA := a.FilterWrite(0xC90, 0x7F, 0x0F); func() bool {
			_, errB := b.FilterWrite(0xC90, 0x7F, 0x0F)
			return (errA != nil) != (errB != nil)
		}() {
			t.Fatalf("crash rolls perturbed the wrmsr schedule at draw %d", i)
		}
	}
}

// TestCrashRollDeterministic: the crash schedule and outage lengths are a
// pure function of the seed, and outages stay in the documented 1–3
// round range.
func TestCrashRollDeterministic(t *testing.T) {
	var prof Profile
	prof.Rates[HostCrash] = 0.3
	draw := func(seed int64) []int {
		in := NewInjector(prof, seed)
		out := make([]int, 0, 100)
		for i := 0; i < 100; i++ {
			crashed, rounds := in.CrashHost()
			if crashed && (rounds < 1 || rounds > 3) {
				t.Fatalf("outage length %d out of [1,3]", rounds)
			}
			out = append(out, rounds)
		}
		return out
	}
	a, b, c := draw(5), draw(5), draw(6)
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at roll %d", i)
		}
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("seeds 5 and 6 produced identical crash schedules")
	}
	in := NewInjector(prof, 5)
	fired := 0
	for i := 0; i < 100; i++ {
		if ok, _ := in.CrashHost(); ok {
			fired++
		}
	}
	if fired == 0 {
		t.Fatal("rate-0.3 crash kind never fired in 100 rolls")
	}
	if in.Count(HostCrash) != uint64(fired) {
		t.Fatalf("Count(HostCrash) = %d, want %d", in.Count(HostCrash), fired)
	}
}

// TestInjectorSnapshotRestore: restoring a snapshot into a fresh injector
// continues the fault schedule exactly where the original left off —
// both streams, counts, and per-register corruption memory included.
func TestInjectorSnapshotRestore(t *testing.T) {
	prof, _ := ProfileByName("heavy")
	addr := msr.CoreCounterAddr(0, msr.EvCycles)
	mk := func() *Injector { return NewInjector(prof, 17) }
	warm := func(in *Injector) {
		for i := 0; i < 40; i++ {
			in.DropRxDesc()
			in.FilterRead(addr, uint64(1000*i))
			in.CrashHost()
		}
	}
	orig := mk()
	warm(orig)
	snap := orig.Snapshot()

	restored := mk()
	restored.Restore(snap)
	if restored.Total() != orig.Total() {
		t.Fatalf("restored Total %d, want %d", restored.Total(), orig.Total())
	}
	for i := 0; i < 100; i++ {
		if orig.DropRxDesc() != restored.DropRxDesc() {
			t.Fatalf("datapath stream diverged after restore at draw %d", i)
		}
		if orig.FilterRead(addr, uint64(5000+i)) != restored.FilterRead(addr, uint64(5000+i)) {
			t.Fatalf("read corruption diverged after restore at draw %d", i)
		}
		oc, or := orig.CrashHost()
		rc, rr := restored.CrashHost()
		if oc != rc || or != rr {
			t.Fatalf("control stream diverged after restore at draw %d", i)
		}
	}
	// The snapshot's maps are copies: mutating them cannot corrupt the
	// injector they came from.
	snap.WrapOff[addr] = 999
	if v, ok := orig.wrapOff[addr]; ok && v == 999 {
		t.Error("snapshot map aliases the injector's map")
	}
}

// TestZeroRateConsumesNoState: kinds at rate 0 must not advance the
// stream, so one layer's schedule is independent of another layer's
// activity level.
func TestZeroRateConsumesNoState(t *testing.T) {
	var prof Profile
	prof.Rates[NICDrop] = 0.5
	a := NewInjector(prof, 11)
	b := NewInjector(prof, 11)
	for i := 0; i < 50; i++ {
		b.SkipPoll(0) // rate 0: must be a pure no-op
		if a.DropRxDesc() != b.DropRxDesc() {
			t.Fatalf("zero-rate roll perturbed the stream at %d", i)
		}
	}
}

// FuzzProfileByName: arbitrary specs never panic, every accepted rate is
// in [0,1], and Active agrees with any rate being positive.
func FuzzProfileByName(f *testing.F) {
	for _, name := range ProfileNames() {
		f.Add(name)
	}
	f.Add("msr-reject=0.5, poll-skip=1")
	f.Add("msr-reject=NaN")
	f.Add("msr-reject=NaN,nic-drop=0.1")
	f.Add("nic-drop=+Inf")
	f.Add("nic-drop=-0,,")
	f.Add("bogus")
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ProfileByName(spec)
		if err != nil {
			return
		}
		anyPositive := false
		for k, r := range p.Rates {
			if !(r >= 0 && r <= 1) {
				t.Fatalf("%q: rate %v for %s outside [0,1]", spec, r, Kind(k))
			}
			anyPositive = anyPositive || r > 0
		}
		if p.Active() != anyPositive {
			t.Fatalf("%q: Active() = %v with rates %v", spec, p.Active(), p.Rates)
		}
	})
}
