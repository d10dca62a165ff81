package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/exp"
)

// TestExperimentFlag runs the real binary: -experiment list prints every
// registered experiment and exits 0, and an unknown name exits non-zero
// with the valid names in its message.
func TestExperimentFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	dir := t.TempDir()
	// go test puts its own toolchain first on the PATH of subprocesses.
	build := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "repro/cmd/annbench")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	bin := filepath.Join(dir, "annbench")

	out, err := exec.Command(bin, "-experiment", "list").CombinedOutput()
	if err != nil {
		t.Fatalf("-experiment list: %v\n%s", err, out)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) != len(exp.All()) {
		t.Errorf("-experiment list printed %d lines, want %d:\n%s", len(lines), len(exp.All()), out)
	}
	for i, e := range exp.All() {
		if i < len(lines) && strings.Fields(lines[i])[0] != e.Name {
			t.Errorf("list line %d = %q, want experiment %s", i, lines[i], e.Name)
		}
	}

	out, err = exec.Command(bin, "-experiment", "nope").CombinedOutput()
	if err == nil {
		t.Fatalf("-experiment nope exited 0:\n%s", out)
	}
	for _, e := range exp.All() {
		if !strings.Contains(string(out), e.Name) {
			t.Errorf("-experiment nope output does not name %s:\n%s", e.Name, out)
		}
	}
}
