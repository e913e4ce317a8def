package lint

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe extracts the expectation regex from a // want `...` annotation.
var wantRe = regexp.MustCompile("// want `([^`]+)`")

// loadFixture loads testdata/src/<dir> under the given import path.
func loadFixture(t *testing.T, dir, importPath string) (*Loader, *Package) {
	t.Helper()
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	p, err := l.LoadDir(filepath.Join("testdata", "src", dir), importPath)
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", dir, err)
	}
	return l, p
}

// wantKey identifies one expected diagnostic.
type wantKey struct {
	file string
	line int
}

// collectWants parses every want annotation in the fixture package.
func collectWants(p *Package) map[wantKey][]string {
	wants := map[wantKey][]string{}
	for _, file := range p.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := p.Fset.Position(c.Pos())
				k := wantKey{pos.Filename, pos.Line}
				wants[k] = append(wants[k], m[1])
			}
		}
	}
	return wants
}

// checkFixture runs checks over the fixture and verifies findings match the
// want annotations exactly (every want matched, every finding wanted).
func checkFixture(t *testing.T, cfg *Config, p *Package, checks []*Check) {
	t.Helper()
	findings := Run(cfg, []*Package{p}, checks)
	wants := collectWants(p)

	matched := map[int]bool{} // finding index -> consumed
	for k, patterns := range wants {
		for _, pat := range patterns {
			re, err := regexp.Compile(pat)
			if err != nil {
				t.Fatalf("bad want regex %q: %v", pat, err)
			}
			found := false
			for i, f := range findings {
				if matched[i] || f.Pos.Filename != k.file || f.Pos.Line != k.line {
					continue
				}
				if re.MatchString(f.Message) {
					matched[i] = true
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s:%d: expected finding matching %q, got none", filepath.Base(k.file), k.line, pat)
			}
		}
	}
	for i, f := range findings {
		if !matched[i] {
			t.Errorf("unexpected finding: %s", f)
		}
	}
}

// banCases maps each fixture directory under testdata/src to the rows of
// the ban table it exercises. Every row must be exercised by some fixture
// (TestBanRowsHaveFixtures).
var banCases = map[string]func(b *Ban) bool{
	"determinism":     func(b *Ban) bool { return b.Check == "determinism" },
	"serverexempt":    func(b *Ban) bool { return b.Kind == BanGo },
	"staengine":       func(b *Ban) bool { return b.Kind == BanFunc && b.Pkg == "internal/sta" },
	"pipeline":        func(b *Ban) bool { return b.Kind == BanStageCall },
	"indexedscan":     func(b *Ban) bool { return b.Kind == BanNestedCellsScan },
	"backendregistry": func(b *Ban) bool { return b.Kind == BanFunc && b.Pkg == "internal/place/..." },
}

// banRows returns the rows of cfg the fixture exercises and the check
// they report under.
func banRows(t *testing.T, cfg *Config, fixture string) ([]*Ban, []*Check) {
	t.Helper()
	var rows []*Ban
	for i := range cfg.Bans {
		if banCases[fixture](&cfg.Bans[i]) {
			rows = append(rows, &cfg.Bans[i])
		}
	}
	if len(rows) == 0 {
		t.Fatalf("fixture %q exercises no ban row", fixture)
	}
	return rows, []*Check{CheckByName(rows[0].Check)}
}

// banInScope loads the fixture as fixture/<dir>, adds that path to the
// scope of its scoped rows, and requires exactly the want annotations.
func banInScope(t *testing.T, fixture string) {
	path := "fixture/" + fixture
	_, p := loadFixture(t, fixture, path)
	cfg := DefaultConfig()
	rows, checks := banRows(t, cfg, fixture)
	for _, b := range rows {
		if len(b.In) > 0 {
			b.In = append(b.In[:len(b.In):len(b.In)], path)
		}
	}
	checkFixture(t, cfg, p, checks)
}

// banOutOfScope loads the fixture under a path outside every scope of its
// rows (and outside internal/, so the doc and panic rules stay off too):
// the same source must be clean.
func banOutOfScope(t *testing.T, fixture string) {
	cfg := DefaultConfig()
	rows, checks := banRows(t, cfg, fixture)
	for _, b := range rows {
		if len(b.In) == 0 {
			t.Fatalf("%s: a row scoped everywhere has no out-of-scope package", fixture)
		}
	}
	_, p := loadFixture(t, fixture, "fixture/"+fixture+"-off")
	if fs := Run(cfg, []*Package{p}, checks); len(fs) != 0 {
		t.Errorf("unrestricted package flagged: %v", fs)
	}
}

// banExcepted loads the fixture under every exception of its rows: each
// sanctioned package must be clean.
func banExcepted(t *testing.T, fixture string) {
	cfg := DefaultConfig()
	rows, checks := banRows(t, cfg, fixture)
	n := 0
	for _, b := range rows {
		for _, e := range b.Except {
			n++
			_, p := loadFixture(t, fixture, "fold3d/"+e)
			if fs := Run(cfg, []*Package{p}, checks); len(fs) != 0 {
				t.Errorf("%s: exception not honored: %v", e, fs)
			}
		}
	}
	if n == 0 {
		t.Fatalf("%s: no row has an exception", fixture)
	}
}

// TestBanRowsHaveFixtures requires every row of the default ban table to
// be exercised by a fixture case.
func TestBanRowsHaveFixtures(t *testing.T) {
	cfg := DefaultConfig()
	for i := range cfg.Bans {
		b := &cfg.Bans[i]
		covered := false
		for _, exercises := range banCases {
			covered = covered || exercises(b)
		}
		if !covered {
			t.Errorf("ban row %+v has no fixture in banCases", *b)
		}
	}
}

func TestDeterminismFixture(t *testing.T) { banInScope(t, "determinism") }

func TestDeterminismSkipsNonAlgoPackages(t *testing.T) {
	// Outside algorithm packages the import/call rules are off, but the
	// goroutine rule still applies: only the Spawn fixture line may fire.
	_, p := loadFixture(t, "determinism", "fixture/other")
	fs := Run(DefaultConfig(), []*Package{p}, []*Check{DeterminismCheck()})
	if len(fs) != 1 || !strings.Contains(fs[0].Message, "bare go statement") {
		t.Errorf("non-algo package: want only the goroutine finding, got %v", fs)
	}
}

func TestDeterminismGoroutineAllow(t *testing.T) { banExcepted(t, "determinism") }

// The scheduler/accept-loop goroutine shapes of the fold3dd daemon are
// ordinary findings in a package off the go row's exceptions, and clean
// under the packages the repo policy exempts.
func TestServerExemptFlaggedElsewhere(t *testing.T)   { banInScope(t, "serverexempt") }
func TestServerExemptSanctionedPackages(t *testing.T) { banExcepted(t, "serverexempt") }

func TestSTAEngineFixture(t *testing.T)                  { banInScope(t, "staengine") }
func TestSTAEngineOffByDefaultElsewhere(t *testing.T)    { banOutOfScope(t, "staengine") }
func TestPipelineOnlyFixture(t *testing.T)               { banInScope(t, "pipeline") }
func TestPipelineOnlyOffByDefaultElsewhere(t *testing.T) { banOutOfScope(t, "pipeline") }
func TestIndexedScanFixture(t *testing.T)                { banInScope(t, "indexedscan") }
func TestIndexedScanOffByDefaultElsewhere(t *testing.T)  { banOutOfScope(t, "indexedscan") }
func TestBackendRegistryFixture(t *testing.T)            { banInScope(t, "backendregistry") }
func TestBackendRegistryOffByDefaultElsewhere(t *testing.T) {
	banOutOfScope(t, "backendregistry")
}

func TestMapIterFixture(t *testing.T) {
	_, p := loadFixture(t, "mapiter", "fixture/mapiter")
	checkFixture(t, DefaultConfig(), p, []*Check{MapIterCheck()})
}

func TestFloatCmpFixture(t *testing.T) {
	_, p := loadFixture(t, "floatcmp", "fixture/floatcmp")
	checkFixture(t, DefaultConfig(), p, []*Check{FloatCmpCheck()})
}

func TestErrDropFixture(t *testing.T) {
	_, p := loadFixture(t, "errdrop", "fixture/errdrop")
	checkFixture(t, DefaultConfig(), p, []*Check{ErrDropCheck()})
}

func TestAPIGuardFixture(t *testing.T) {
	_, p := loadFixture(t, "apiguard", "fixture/internal/apiguard")
	checkFixture(t, DefaultConfig(), p, []*Check{APIGuardCheck()})
}

func TestIgnoreDirectives(t *testing.T) {
	_, p := loadFixture(t, "ignore", "fixture/internal/ignorefix")
	findings := Run(DefaultConfig(), []*Package{p}, []*Check{FloatCmpCheck()})

	// The two reasoned directives suppress their findings; the wrong-check
	// and missing-reason cases survive, and the reasonless directive is
	// itself reported.
	var floatcmps, malformed int
	for _, f := range findings {
		switch f.Check {
		case "floatcmp":
			floatcmps++
		case "ignore":
			malformed++
			if !strings.Contains(f.Message, "missing a reason") {
				t.Errorf("unexpected ignore finding: %s", f)
			}
		default:
			t.Errorf("unexpected check %q: %s", f.Check, f)
		}
	}
	if floatcmps != 2 {
		t.Errorf("got %d surviving floatcmp findings, want 2:\n%s", floatcmps, renderAll(findings))
	}
	if malformed != 1 {
		t.Errorf("got %d malformed-directive findings, want 1:\n%s", malformed, renderAll(findings))
	}
}

// TestIgnoreMultiLineAttribution pins the directive-coverage rules for the
// two shapes the line+1 heuristic used to miss: a reason wrapped onto
// continuation comment lines, and a finding anchored on an inner line of a
// multi-line statement. It also pins that coverage stops at the statement.
func TestIgnoreMultiLineAttribution(t *testing.T) {
	p := loadSrc(t, "igspan", `// Package igspan is an ignore-attribution fixture.
package igspan

func wrapped(a, b float64) bool {
	//lint:ignore floatcmp the reason for this one wraps onto a
	// second comment line, which must not detach the directive
	// from the statement below.
	return a == b
}

func inner(a, b float64) []bool {
	//lint:ignore floatcmp the finding sits on an inner line of this
	// multi-line composite literal.
	out := []bool{
		a == b,
	}
	return out
}

func leak(a, b float64) bool {
	//lint:ignore floatcmp covers only the next statement
	_ = a == b
	return a == b
}
`)
	findings := Run(DefaultConfig(), []*Package{p}, []*Check{FloatCmpCheck()})
	if len(findings) != 1 {
		t.Fatalf("got %d findings, want exactly the uncovered one in leak:\n%s", len(findings), renderAll(findings))
	}
	if !strings.Contains(findings[0].Pos.String(), "igspan.go:23") {
		t.Errorf("surviving finding at %s, want the return in leak (line 23)", findings[0].Pos)
	}
}

// renderAll formats findings for failure messages.
func renderAll(fs []Finding) string {
	var sb strings.Builder
	for _, f := range fs {
		fmt.Fprintf(&sb, "  %s\n", f)
	}
	return sb.String()
}

func TestCheckByName(t *testing.T) {
	for _, c := range AllChecks() {
		got := CheckByName(c.Name)
		if got == nil || got.Name != c.Name {
			t.Errorf("CheckByName(%q) = %v", c.Name, got)
		}
	}
	if CheckByName("nope") != nil {
		t.Errorf("CheckByName(nope) should be nil")
	}
}

func TestFindingString(t *testing.T) {
	f := Finding{Check: "floatcmp", Message: "boom"}
	f.Pos.Filename = "x.go"
	f.Pos.Line = 3
	f.Pos.Column = 7
	if got, want := f.String(), "x.go:3:7: [floatcmp] boom"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestMatchAny(t *testing.T) {
	cases := []struct {
		patterns []string
		rel      string
		want     bool
	}{
		{nil, "internal/place", true},
		{[]string{"..."}, "internal/place", true},
		{[]string{"./..."}, "internal/place", true},
		{[]string{"internal/place"}, "internal/place", true},
		{[]string{"internal/place"}, "internal/power", false},
		{[]string{"internal/..."}, "internal/place", true},
		{[]string{"internal/..."}, "cmd/fold3d", false},
		{[]string{"cmd/..."}, "cmd/fold3d", true},
	}
	for _, c := range cases {
		if got := matchAny(c.patterns, c.rel); got != c.want {
			t.Errorf("matchAny(%v, %q) = %v, want %v", c.patterns, c.rel, got, c.want)
		}
	}
}
