package scenario

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the replay digest golden")

// goldenPath holds one line per (built-in, seed): the SHA-256 of the
// replay's OutcomesJSON and of its ReportJSON.
var goldenPath = filepath.Join("testdata", "replay.sha256")

// goldenSeeds are the seeds whose replays are pinned.
var goldenSeeds = []int64{1, 2}

// TestReplayGolden pins every built-in scenario's replay evidence byte for
// byte: any change to routing, batching, admission, fault injection or the
// report shape shows up here as a changed digest. Regenerate with:
//
//	go test ./internal/scenario -run TestReplayGolden -update
func TestReplayGolden(t *testing.T) {
	var lines []string
	for _, sc := range Builtins() {
		for _, seed := range goldenSeeds {
			res, err := Replay(sc, seed)
			if err != nil {
				t.Fatalf("%s seed %d: %v", sc.Name, seed, err)
			}
			lines = append(lines, fmt.Sprintf("%s %d outcomes %x report %x",
				sc.Name, seed, sha256.Sum256(res.OutcomesJSON), sha256.Sum256(res.ReportJSON)))
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(lines) {
		t.Fatalf("%s has %d lines, replays produced %d; regenerate with -update if the change is intended",
			goldenPath, len(wantLines), len(lines))
	}
	for i := range lines {
		if lines[i] != wantLines[i] {
			t.Errorf("replay digest changed:\n  want %s\n  got  %s", wantLines[i], lines[i])
		}
	}
}
