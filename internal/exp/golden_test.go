package exp

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"testing"
)

// goldenPath holds the SHA-256 of every registered experiment's Report and
// of each of its Files at scale 1000, per seed. The entries are keyed
// "<experiment>" for the report and "<experiment>/<file>" for an artifact.
// Volatile is display-only and excluded. A deletion or refactor that is
// meant to change no output must leave every hash untouched; a change that
// does alter a report re-records the file from the values this test prints.
const goldenPath = "testdata/golden.json"

// goldenHashes fingerprints one RunAll result set.
func goldenHashes(results []*Result) map[string]string {
	sum := func(s string) string {
		h := sha256.Sum256([]byte(s))
		return hex.EncodeToString(h[:])
	}
	out := make(map[string]string)
	for _, r := range results {
		out[r.Name] = sum(r.Report)
		for name, content := range r.Files {
			out[r.Name+"/"+name] = sum(content)
		}
	}
	return out
}

// TestGoldenFingerprints runs every experiment at scale 1000 for seeds 1–3
// (seed 1 only under -short) and compares each report and artifact hash
// against testdata/golden.json.
func TestGoldenFingerprints(t *testing.T) {
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string]map[string]string
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	seeds := []uint64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		key := fmt.Sprintf("seed%d", seed)
		t.Run(key, func(t *testing.T) {
			results, err := RunAll(context.Background(), Config{Scale: 1000, Seed: seed}, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, want := goldenHashes(results), golden[key]
			names := make([]string, 0, len(got)+len(want))
			for name := range got {
				names = append(names, name)
			}
			for name := range want {
				if _, ok := got[name]; !ok {
					names = append(names, name)
				}
			}
			sort.Strings(names)
			failed := false
			for _, name := range names {
				if got[name] != want[name] {
					failed = true
					t.Errorf("%s: got %q, want %q", name, got[name], want[name])
				}
			}
			if failed {
				js, _ := json.MarshalIndent(got, "", "  ")
				t.Logf("%s: every value this run produced:\n%s", key, js)
			}
		})
	}
}
