package main

import (
	"bytes"
	"compress/gzip"
	"math"
	"testing"
)

// Minimal protobuf encoding, enough to hand-build profile.proto messages.
func pbVarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

func pbUint(b []byte, num, v uint64) []byte { return pbVarint(pbVarint(b, num<<3), v) }

func pbBytes(b []byte, num uint64, v []byte) []byte {
	b = pbVarint(pbVarint(b, num<<3|2), uint64(len(v)))
	return append(b, v...)
}

func pbPacked(b []byte, num uint64, vs ...uint64) []byte {
	var p []byte
	for _, v := range vs {
		p = pbVarint(p, v)
	}
	return pbBytes(b, num, p)
}

// syntheticProfile is a gzipped CPU profile with known contents: probe is
// inlined into Access (one location, two lines), and the three samples
// carry 30, 10 and 10 ns of CPU time. The second sample uses unpacked
// repeated fields, which the reader must accept too.
func syntheticProfile(t *testing.T) []byte {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"iatsim/internal/cache.(*LLC).probe", "iatsim/internal/cache.(*LLC).Access",
		"runtime.mallocgc", "main.main"}
	var p []byte
	p = pbBytes(p, 1, pbUint(pbUint(nil, 1, 1), 2, 2)) // samples/count
	p = pbBytes(p, 1, pbUint(pbUint(nil, 1, 3), 2, 4)) // cpu/nanoseconds
	p = pbBytes(p, 2, pbPacked(pbPacked(nil, 1, 1, 2), 2, 3, 30))
	p = pbBytes(p, 2, pbUint(pbUint(pbUint(pbUint(nil, 1, 3), 1, 2), 2, 1), 2, 10))
	p = pbBytes(p, 2, pbPacked(pbPacked(nil, 1, 2), 2, 1, 10))
	line := func(fn uint64) []byte { return pbUint(nil, 1, fn) }
	p = pbBytes(p, 4, pbBytes(pbBytes(pbUint(nil, 1, 1), 4, line(1)), 4, line(2)))
	p = pbBytes(p, 4, pbBytes(pbUint(nil, 1, 2), 4, line(4)))
	p = pbBytes(p, 4, pbBytes(pbUint(nil, 1, 3), 4, line(3)))
	for id, name := range []uint64{5, 6, 7, 8} {
		p = pbBytes(p, 5, pbUint(pbUint(nil, 1, uint64(id+1)), 2, name))
	}
	for _, s := range strs {
		p = pbBytes(p, 6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestReduceSyntheticProfile(t *testing.T) {
	p, err := parseProfile(syntheticProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	r := p.reduce()
	if r.Total != 50 {
		t.Fatalf("total %d ns, want 50 (the cpu value, not the sample count)", r.Total)
	}
	checks := []struct {
		what      string
		got, want float64
	}{
		{"self probe (inlined leaf)", r.SelfFn["iatsim/internal/cache.(*LLC).probe"], 60},
		{"self Access (caller of the inlined leaf)", r.SelfFn["iatsim/internal/cache.(*LLC).Access"], 0},
		{"self mallocgc", r.SelfFn["runtime.mallocgc"], 20},
		{"self main", r.SelfFn["main.main"], 20},
		{"cum Access", r.CumFn["iatsim/internal/cache.(*LLC).Access"], 60},
		{"cum main", r.CumFn["main.main"], 100},
		{"pkg cache", r.pkgSelf("cache"), 60},
		{"pkg runtime", r.pkgSelf("runtime"), 20},
		{"pkg sim", r.pkgSelf("sim"), 0},
	}
	for _, c := range checks {
		if !near(c.got, c.want) {
			t.Errorf("%s = %v%%, want %v%%", c.what, c.got, c.want)
		}
	}
}

func TestParseProfileRejectsTruncated(t *testing.T) {
	data := syntheticProfile(t)
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var raw bytes.Buffer
	if _, err := raw.ReadFrom(zr); err != nil {
		t.Fatal(err)
	}
	if _, err := parseProfile(raw.Bytes()[:raw.Len()-3]); err == nil {
		t.Fatal("truncated profile parsed without error")
	}
}

func TestFuncPackage(t *testing.T) {
	for in, want := range map[string]string{
		"iatsim/internal/cache.(*LLC).probe":                     "iatsim/internal/cache",
		"runtime.mallocgc":                                       "runtime",
		"internal/runtime/maps.(*Map).getWithKey":                "internal/runtime/maps",
		"iatsim/internal/core.sortedCLOS[go.shape.struct { x }]": "iatsim/internal/core",
		"iatsim/internal/sim.(*Platform).Step.func1":             "iatsim/internal/sim",
	} {
		if got := funcPackage(in); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestReduceFixedProfile reduces a CPU profile recorded from a traced
// leaky-dma run. The expected shares were cross-checked against
// `go tool pprof -top` on the same file (flat% per function, summed by
// package).
func TestReduceFixedProfile(t *testing.T) {
	r, err := reduceProfileFile("testdata/leaky-dma.cpu.pb.gz")
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, p := range profPkgs {
		total += r.pkgSelf(p)
	}
	if total > 100+1e-9 {
		t.Errorf("package shares sum to %v%%, more than the whole profile", total)
	}
	for _, c := range fixedProfileWant {
		got := r.SelfFn[c.fn]
		if c.cum {
			got = r.CumFn[c.fn]
		}
		if c.pkg != "" {
			got = r.pkgSelf(c.pkg)
		}
		if math.Abs(got-c.want) > 0.01 {
			t.Errorf("%s%s = %.4f%%, want %.4f%%", c.pkg, c.fn, got, c.want)
		}
	}
}

// fixedProfileWant are the shares of testdata/leaky-dma.cpu.pb.gz (310
// samples): per package (pkg set) or per function (fn set, cumulative
// when cum).
var fixedProfileWant = []struct {
	pkg, fn string
	cum     bool
	want    float64
}{
	{pkg: "cache", want: 87.7419},
	{pkg: "sim", want: 3.8710},
	{pkg: "nic", want: 1.6129},
	{pkg: "ddio", want: 1.2903},
	{pkg: "workload", want: 1.2903},
	{pkg: "msr", want: 0.6452},
	{pkg: "mem", want: 0.3226},
	{pkg: "runtime", want: 0.3226},
	{pkg: "rdt", want: 0},
	{fn: "iatsim/internal/cache.(*LLC).probe", want: 29.3548},
	{fn: "iatsim/internal/cache.(*private).probe", want: 19.3548},
	{fn: "iatsim/internal/cache.(*private).fill", want: 12.2581},
	{fn: "iatsim/internal/cache.(*LLC).IOWrite", cum: true, want: 21.2903},
	{fn: "iatsim/internal/sim.(*Platform).Step", cum: true, want: 99.3548},
}
