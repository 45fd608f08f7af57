package policy

import "testing"

// FuzzParseSpec: arbitrary -policy values never panic, and every accepted
// spec renders to text that parses back to the same spec.
func FuzzParseSpec(f *testing.F) {
	for _, text := range []string{"iat", "static", "static:1", "static:32", "static:33", "static:-1",
		"static:NaN", "static:+4", "ioca", "greedy", "coreonly", "ioiso", "", "IAT"} {
		f.Add(text)
	}
	f.Fuzz(func(t *testing.T, text string) {
		sp, err := ParseSpec(text)
		if err != nil {
			return
		}
		again, err := ParseSpec(sp.String())
		if err != nil || again != sp {
			t.Fatalf("%q -> %q -> %+v (%v)", text, sp.String(), again, err)
		}
	})
}

// FuzzParseShadowSpecs: arbitrary -shadow values never panic, every
// accepted spec round-trips through its text, and the accepted shadows
// have distinct names (rows and telemetry are keyed by name).
func FuzzParseShadowSpecs(f *testing.F) {
	for _, text := range []string{"", " ", "iat,greedy", "static:2,ioca,greedy", "static,static:2",
		"iat, ,ioiso", "static:NaN", "greedy,greedy", ",,"} {
		f.Add(text)
	}
	f.Fuzz(func(t *testing.T, text string) {
		specs, err := ParseShadowSpecs(text)
		if err != nil {
			return
		}
		seen := map[string]bool{}
		for _, sp := range specs {
			again, err := ParseSpec(sp.String())
			if err != nil || again != sp {
				t.Fatalf("%q: %q -> %+v (%v)", text, sp.String(), again, err)
			}
			name := sp.New().Name()
			if seen[name] {
				t.Fatalf("%q: duplicate shadow %q accepted", text, name)
			}
			seen[name] = true
		}
	})
}
